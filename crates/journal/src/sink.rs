//! Pluggable journal byte sinks.
//!
//! The writer appends framed records; where the bytes go is a
//! [`JournalSink`]: in-memory for tests and same-process replay
//! ([`MemSink`]), a buffered file for `--journal-out` ([`FileSink`]).

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Destination for journal bytes. Implementations must preserve append
/// order; the writer never seeks.
pub trait JournalSink: Send {
    /// Append `bytes`.
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()>;

    /// Flush any buffering to the backing store.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// An in-memory sink. Cloning shares the same buffer, so a test can keep
/// one handle and hand the other to the kernel, then read
/// [`MemSink::contents`] after the run.
#[derive(Default, Clone)]
pub struct MemSink {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.buf.lock().expect("journal sink poisoned").clone()
    }

    /// Bytes written so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.buf.lock().expect("journal sink poisoned").len()
    }

    /// Has nothing been written?
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl JournalSink for MemSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.buf
            .lock()
            .expect("journal sink poisoned")
            .extend_from_slice(bytes);
        Ok(())
    }
}

/// A buffered file sink for `--journal-out`.
pub struct FileSink {
    w: std::io::BufWriter<std::fs::File>,
}

impl FileSink {
    /// Create (truncating) the journal file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(FileSink {
            w: std::io::BufWriter::new(std::fs::File::create(path)?),
        })
    }
}

impl JournalSink for FileSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.w.write_all(bytes)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_sink_shares_buffer_across_clones() {
        let sink = MemSink::new();
        let mut handle = sink.clone();
        assert!(sink.is_empty());
        handle.write(b"abc").unwrap();
        handle.write(b"def").unwrap();
        assert_eq!(sink.contents(), b"abcdef");
        assert_eq!(sink.len(), 6);
    }

    #[test]
    fn file_sink_writes_through() {
        let path = std::env::temp_dir().join(format!("legion-journal-sink-{}", std::process::id()));
        {
            let mut sink = FileSink::create(&path).unwrap();
            sink.write(b"hello ").unwrap();
            sink.write(b"journal").unwrap();
            sink.flush().unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"hello journal");
        let _ = std::fs::remove_file(&path);
    }
}
