//! Scheduling Agents as live objects (paper §3.7, §3.8).
//!
//! "Complex scheduling policies are intended to be implemented outside of
//! the Magistrate in Scheduling Agents. The Scheduling Agents will
//! implement their policies by making calls on the primitive scheduling
//! functions exported by the Magistrates" — and by the Host Objects,
//! whose `GetState()` is exactly such a primitive.
//!
//! [`SchedulingAgentEndpoint`] answers `SuggestHost(loid)`: it polls every
//! host's `GetState()`, picks the host with the most free slots, and
//! replies with that host's LOID. Callers pass the suggestion into the
//! Magistrate's two-argument `Activate(loid, host)` — the paper's
//! scheduling "hook".
//!
//! The scatter–gather is built on the shared [`Continuations`] store:
//! each outbound `GetState` registers a typed continuation that folds the
//! host's answer into the poll, so there is no hand-rolled call-id → poll
//! bookkeeping here.

use crate::protocol::host as host_proto;
use legion_core::address::ObjectAddressElement;
use legion_core::env::InvocationEnv;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::value::LegionValue;
use legion_net::dispatch::{
    cont_expecting, reply_id, serve, take_reply_result, Continuations, MethodTable, Outcome,
    TableBuilder,
};
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint};
use std::collections::HashMap;
use std::rc::Rc;

/// Method the agent exports.
pub const SUGGEST_HOST: &str = "SuggestHost";

struct Poll {
    /// The original request to answer.
    requester: Box<Message>,
    /// Replies still outstanding.
    outstanding: usize,
    /// Best host so far: (free slots, loid).
    best: Option<(u64, Loid)>,
}

/// A Scheduling Agent polling host `GetState()` and suggesting placements.
pub struct SchedulingAgentEndpoint {
    loid: Loid,
    hosts: Vec<(Loid, ObjectAddressElement)>,
    continuations: Continuations<Self>,
    polls: HashMap<u64, Poll>,
    next_poll: u64,
    table: Rc<MethodTable<Self>>,
    /// Suggestions served (experiment accounting).
    pub suggestions: u64,
}

impl SchedulingAgentEndpoint {
    /// An agent that knows about `hosts`.
    pub fn new(loid: Loid, hosts: Vec<(Loid, ObjectAddressElement)>) -> Self {
        SchedulingAgentEndpoint {
            loid,
            hosts,
            continuations: Continuations::new(),
            polls: HashMap::new(),
            next_poll: 0,
            table: Self::table(loid),
            suggestions: 0,
        }
    }

    fn table(loid: Loid) -> Rc<MethodTable<Self>> {
        TableBuilder::new("sched_agent", "SchedulingAgent", loid)
            .method::<(Loid,), _>(
                SUGGEST_HOST,
                &["target"],
                ParamType::Loid,
                |e: &mut Self, ctx, msg, (_target,)| {
                    if e.hosts.is_empty() {
                        return Outcome::Reply(Err("scheduling agent knows no hosts".into()));
                    }
                    let poll_id = e.next_poll;
                    e.next_poll += 1;
                    let mut outstanding = 0;
                    let me = e.loid;
                    for (host, element) in e.hosts.clone() {
                        if let Some(call) = ctx.call(
                            element,
                            host,
                            host_proto::GET_STATE,
                            vec![],
                            InvocationEnv::solo(me),
                            Some(host),
                        ) {
                            // GetState reply: [running, capacity, cpu, mem].
                            e.continuations.insert(
                                call,
                                cont_expecting::<Self, Vec<LegionValue>, _>(
                                    move |e, ctx, state| e.absorb(ctx, poll_id, host, state),
                                ),
                            );
                            outstanding += 1;
                        }
                    }
                    if outstanding == 0 {
                        return Outcome::Reply(Err("no host reachable".into()));
                    }
                    e.polls.insert(
                        poll_id,
                        Poll {
                            requester: Box::new(msg.clone()),
                            outstanding,
                            best: None,
                        },
                    );
                    Outcome::Pending
                },
            )
            .get_interface()
            .seal()
    }

    /// Fold one host's `GetState` answer into its poll.
    fn absorb(
        &mut self,
        ctx: &mut Ctx<'_>,
        poll_id: u64,
        host: Loid,
        state: Result<Vec<LegionValue>, String>,
    ) {
        if let Some(poll) = self.polls.get_mut(&poll_id) {
            poll.outstanding -= 1;
            if let Ok(items) = state {
                if let (Some(running), Some(capacity)) = (
                    items.first().and_then(|v| v.as_uint()),
                    items.get(1).and_then(|v| v.as_uint()),
                ) {
                    let free = capacity.saturating_sub(running);
                    if poll.best.map(|(f, _)| free > f).unwrap_or(free > 0) {
                        poll.best = Some((free, host));
                    }
                }
            }
        }
        self.finish(ctx, poll_id);
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, poll_id: u64) {
        let Some(poll) = self.polls.get(&poll_id) else {
            return;
        };
        if poll.outstanding > 0 {
            return;
        }
        let poll = self.polls.remove(&poll_id).expect("checked above");
        match poll.best {
            Some((_, host)) => {
                self.suggestions += 1;
                ctx.count("sched_agent.suggestions");
                ctx.reply(&poll.requester, Ok(LegionValue::Loid(host)));
            }
            None => {
                ctx.reply(&poll.requester, Err("no host answered GetState".into()));
            }
        }
    }
}

impl Endpoint for SchedulingAgentEndpoint {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Some(id) = reply_id(&msg) {
            if let Some(resume) = self.continuations.take(&id) {
                resume(self, ctx, take_reply_result(msg));
            }
            return;
        }
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{HostConfig, HostObjectEndpoint};
    use crate::protocol::ActivationSpec;
    use legion_net::message::Body;
    use legion_net::sim::{EndpointId, SimKernel};
    use legion_net::topology::{Location, Topology};
    use legion_net::FaultPlan;

    #[derive(Default)]
    struct Probe {
        replies: Vec<Result<LegionValue, String>>,
    }
    impl Endpoint for Probe {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
            if let Body::Reply { result, .. } = msg.body {
                self.replies.push(result);
            }
        }
    }

    fn host(k: &mut SimKernel, n: u64, capacity: u32) -> (Loid, EndpointId) {
        let loid = Loid::instance(3, n);
        let ep = k.add_endpoint(
            Box::new(HostObjectEndpoint::new(HostConfig {
                loid,
                capacity,
                magistrate: None,
                class_addr: None,
            })),
            Location::new(0, n as u32),
            format!("host{n}"),
        );
        (loid, ep)
    }

    fn suggest(
        k: &mut SimKernel,
        probe: EndpointId,
        agent: EndpointId,
    ) -> Result<LegionValue, String> {
        let id = k.fresh_call_id();
        let mut msg = Message::call(
            id,
            Loid::instance(40, 1),
            SUGGEST_HOST,
            vec![LegionValue::Loid(Loid::instance(16, 1))],
            InvocationEnv::anonymous(),
        );
        msg.reply_to = Some(probe.element());
        k.inject(Location::new(0, 9), agent.element(), msg);
        k.run_until_quiescent(10_000);
        k.endpoint::<Probe>(probe)
            .unwrap()
            .replies
            .last()
            .cloned()
            .unwrap()
    }

    #[test]
    fn suggests_the_emptiest_host() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let (h1, e1) = host(&mut k, 1, 4);
        let (h2, e2) = host(&mut k, 2, 4);
        // Fill h1 with two objects.
        for seq in 0..2 {
            let spec = ActivationSpec {
                loid: Loid::instance(16, seq + 1),
                class: Loid::class_object(16),
                state: vec![],
                class_addr: None,
                magistrate_addr: None,
            };
            let id = k.fresh_call_id();
            let msg = Message::call(
                id,
                h1,
                host_proto::ACTIVATE,
                spec.to_args(),
                InvocationEnv::anonymous(),
            );
            k.inject(Location::new(0, 9), e1.element(), msg);
            k.run_until_quiescent(10_000);
        }
        let agent = k.add_endpoint(
            Box::new(SchedulingAgentEndpoint::new(
                Loid::instance(40, 1),
                vec![(h1, e1.element()), (h2, e2.element())],
            )),
            Location::new(0, 8),
            "sched-agent",
        );
        let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
        let r = suggest(&mut k, probe, agent);
        assert_eq!(r, Ok(LegionValue::Loid(h2)), "h2 has more free slots");
        assert_eq!(
            k.endpoint::<SchedulingAgentEndpoint>(agent)
                .unwrap()
                .suggestions,
            1
        );
        // The scatter-gather left no dangling continuations behind.
        assert!(k
            .endpoint::<SchedulingAgentEndpoint>(agent)
            .unwrap()
            .continuations
            .is_empty());
    }

    #[test]
    fn dead_hosts_are_skipped() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let (h1, e1) = host(&mut k, 1, 4);
        let (h2, e2) = host(&mut k, 2, 4);
        k.remove_endpoint(e1);
        let agent = k.add_endpoint(
            Box::new(SchedulingAgentEndpoint::new(
                Loid::instance(40, 1),
                vec![(h1, e1.element()), (h2, e2.element())],
            )),
            Location::new(0, 8),
            "sched-agent",
        );
        let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
        let r = suggest(&mut k, probe, agent);
        assert_eq!(r, Ok(LegionValue::Loid(h2)));
    }

    #[test]
    fn no_hosts_errors() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let agent = k.add_endpoint(
            Box::new(SchedulingAgentEndpoint::new(Loid::instance(40, 1), vec![])),
            Location::new(0, 8),
            "sched-agent",
        );
        let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
        let r = suggest(&mut k, probe, agent);
        assert!(r.is_err());
        let (h1, e1) = host(&mut k, 1, 4);
        k.remove_endpoint(e1);
        let agent2 = k.add_endpoint(
            Box::new(SchedulingAgentEndpoint::new(
                Loid::instance(40, 2),
                vec![(h1, e1.element())],
            )),
            Location::new(0, 8),
            "sched-agent2",
        );
        let r = suggest(&mut k, probe, agent2);
        assert!(r.unwrap_err().contains("no host reachable"));
    }

    #[test]
    fn unknown_method_errors() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let agent = k.add_endpoint(
            Box::new(SchedulingAgentEndpoint::new(Loid::instance(40, 1), vec![])),
            Location::new(0, 8),
            "sched-agent",
        );
        let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
        let id = k.fresh_call_id();
        let mut msg = Message::call(
            id,
            Loid::instance(40, 1),
            "Bogus",
            vec![],
            InvocationEnv::anonymous(),
        );
        msg.reply_to = Some(probe.element());
        k.inject(Location::new(0, 9), agent.element(), msg);
        k.run_until_quiescent(10_000);
        let r = k
            .endpoint::<Probe>(probe)
            .unwrap()
            .replies
            .last()
            .cloned()
            .unwrap();
        assert!(r.unwrap_err().contains("no method"));
        assert_eq!(k.counters().get("sched_agent.unknown_method"), 1);
    }
}
