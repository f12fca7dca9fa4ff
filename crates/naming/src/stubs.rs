//! Static protocol stubs: minimal class and LegionClass endpoints that
//! answer the naming protocol from fixed tables.
//!
//! The *real* class and LegionClass endpoints live in `legion-runtime`
//! (they cooperate with Magistrates to activate Inert objects). These
//! stubs serve the naming crate's tests and the naming-only benchmarks,
//! where every object is permanently Active and the interesting variable
//! is the resolution path itself. They still answer through the shared
//! dispatch layer, so their error behaviour matches the real endpoints.

use crate::protocol::{BindingArg, FIND_RESPONSIBLE, GET_BINDING};
use legion_core::binding::Binding;
use legion_core::fxmap::FxHashMap;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::value::LegionValue;
use legion_core::wellknown::{is_core_class, LEGION_CLASS};
use legion_net::dispatch::{serve, MethodTable, Outcome, TableBuilder};
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint};
use std::rc::Rc;

/// A class endpoint that answers `GetBinding` from a fixed table.
pub struct StaticClassEndpoint {
    /// The class object's own LOID.
    pub loid: Loid,
    /// The (frozen) logical-table view: object → binding.
    pub table: FxHashMap<Loid, Binding>,
    /// `GetBinding` requests served (per-component load, §5.2).
    pub requests: u64,
    dispatch: Rc<MethodTable<Self>>,
}

impl StaticClassEndpoint {
    /// A class endpoint with an empty table.
    pub fn new(loid: Loid) -> Self {
        StaticClassEndpoint {
            loid,
            table: FxHashMap::default(),
            requests: 0,
            dispatch: Self::dispatch_table(loid),
        }
    }

    /// Add a row.
    pub fn with(mut self, binding: Binding) -> Self {
        self.table.insert(binding.loid, binding);
        self
    }

    fn dispatch_table(loid: Loid) -> Rc<MethodTable<Self>> {
        TableBuilder::new("class", "StaticClass", loid)
            .get_interface()
            .method::<(BindingArg,), _>(
                GET_BINDING,
                &["target"],
                ParamType::Binding,
                |e: &mut Self, ctx, _msg, (arg,)| {
                    e.requests += 1;
                    ctx.count("class.get_binding");
                    Outcome::Reply(match e.table.get(&arg.loid()) {
                        Some(b) => Ok(ctx.binding_value(b)),
                        None => Err(format!("{}: unknown object {}", e.loid, arg.loid())),
                    })
                },
            )
            .seal()
    }
}

impl Endpoint for StaticClassEndpoint {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is_reply() {
            return;
        }
        let table = Rc::clone(&self.dispatch);
        serve(&table, self, ctx, msg);
    }
}

/// A LegionClass endpoint answering `FindResponsible` and `GetBinding`
/// (for core classes and chain ends) from fixed tables.
pub struct StaticLegionClassEndpoint {
    /// created-class → creating-class responsibility pairs (§4.1.3).
    pub responsible: FxHashMap<Loid, Loid>,
    /// Bindings LegionClass itself maintains (core classes, and any class
    /// whose chain ends here).
    pub class_bindings: FxHashMap<Loid, Binding>,
    /// `FindResponsible` requests served.
    pub find_requests: u64,
    /// `GetBinding` requests served.
    pub binding_requests: u64,
    dispatch: Rc<MethodTable<Self>>,
}

impl Default for StaticLegionClassEndpoint {
    fn default() -> Self {
        Self::new()
    }
}

impl StaticLegionClassEndpoint {
    /// Empty tables.
    pub fn new() -> Self {
        StaticLegionClassEndpoint {
            responsible: FxHashMap::default(),
            class_bindings: FxHashMap::default(),
            find_requests: 0,
            binding_requests: 0,
            dispatch: Self::dispatch_table(),
        }
    }

    /// Total requests of both kinds (the §5.2.2 bottleneck measure).
    pub fn total_requests(&self) -> u64 {
        self.find_requests + self.binding_requests
    }

    fn dispatch_table() -> Rc<MethodTable<Self>> {
        TableBuilder::new("legion_class", "LegionClass", LEGION_CLASS)
            .get_interface()
            .method::<(Loid,), _>(
                FIND_RESPONSIBLE,
                &["target"],
                ParamType::Loid,
                |e: &mut Self, ctx, _msg, (target,)| {
                    e.find_requests += 1;
                    ctx.count("legion_class.find");
                    Outcome::Reply(if !target.is_class() {
                        Ok(LegionValue::Loid(target.class_loid()))
                    } else {
                        match e.responsible.get(&target) {
                            Some(creator) => Ok(LegionValue::Loid(*creator)),
                            None if is_core_class(&target) || target == LEGION_CLASS => {
                                Ok(LegionValue::Loid(LEGION_CLASS))
                            }
                            None => Err(format!("no responsibility pair for {target}")),
                        }
                    })
                },
            )
            .method::<(BindingArg,), _>(
                GET_BINDING,
                &["target"],
                ParamType::Binding,
                |e: &mut Self, ctx, _msg, (arg,)| {
                    e.binding_requests += 1;
                    ctx.count("legion_class.get_binding");
                    let l = arg.loid();
                    Outcome::Reply(match e.class_bindings.get(&l) {
                        Some(b) => Ok(ctx.binding_value(b)),
                        None => Err(format!("LegionClass has no binding for {l}")),
                    })
                },
            )
            .seal()
    }
}

impl Endpoint for StaticLegionClassEndpoint {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is_reply() {
            return;
        }
        let table = Rc::clone(&self.dispatch);
        serve(&table, self, ctx, msg);
    }
}
