//! Layer probes measured from outside the program: decorators around the
//! two seams the warehouse talks through — [`SourcePort`] (the `sim` layer)
//! and [`Storage`] (the `durable` layer) — plus the in-memory span log they
//! and the replay loop record into.
//!
//! With no [`SpanLog`] attached the decorators take no timestamps; they
//! only note which updates a drain delivered and count WAL bytes.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use dyno_durable::{MemStorage, Storage, StorageError};
use dyno_relational::{thread_stats, ExecStats, QueryResult, Relation, RelationalError, SpjQuery};
use dyno_sim::SimPort;
use dyno_source::{SourceId, UpdateMessage};
use dyno_view::{BoundTable, MaintEvent, SourcePort};

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Driver cycle (one `ingest` + `step`) the span belongs to.
    pub step: u64,
    /// Index of the enclosing span, `None` for a cycle's top-level spans.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory for the whole episode, written out at the end.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
    /// Executor work done inside `SourcePort::execute` (source side).
    pub source_exec: ExecStats,
}

pub type SharedLog = Rc<RefCell<SpanLog>>;

impl SpanLog {
    pub fn shared() -> SharedLog {
        Rc::new(RefCell::new(SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
            source_exec: ExecStats::default(),
        }))
    }

    /// Forgets everything recorded so far (set-up work is not a step).
    pub fn reset(&mut self) {
        self.spans.clear();
        self.source_exec = ExecStats::default();
    }

    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            step: self.step,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in stack order");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span named `name` (no-op wrapper without a log).
    pub fn scope<T>(log: Option<&SharedLog>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match log {
            None => f(),
            Some(log) => {
                let idx = log.borrow_mut().begin(name);
                let out = f();
                log.borrow_mut().end(idx);
                out
            }
        }
    }
}

fn add_exec(acc: &mut ExecStats, d: &ExecStats) {
    acc.rows_scanned += d.rows_scanned;
    acc.index_probes += d.index_probes;
    acc.index_join_steps += d.index_join_steps;
    acc.hash_join_steps += d.hash_join_steps;
    acc.cartesian_fallbacks += d.cartesian_fallbacks;
    acc.weights_cancelled += d.weights_cancelled;
}

/// A committed update the port delivered: `(source, version)`.
pub type Arrival = (SourceId, u64);

/// The `sim` layer probe: a [`SourcePort`] decorator over [`SimPort`].
#[derive(Debug)]
pub struct ProbedPort {
    pub inner: SimPort,
    log: Option<SharedLog>,
    /// Updates handed out by `drain_arrivals` since the replay loop last
    /// took them (it does so after every cycle).
    pub arrivals: Vec<Arrival>,
}

impl ProbedPort {
    pub fn new(inner: SimPort, log: Option<SharedLog>) -> Self {
        ProbedPort { inner, log, arrivals: Vec::new() }
    }
}

impl SourcePort for ProbedPort {
    fn now_ms(&self) -> u64 {
        self.inner.now_ms()
    }

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn advance_wait(&mut self, us: u64) {
        self.inner.advance_wait(us);
    }

    fn execute(
        &mut self,
        query: &SpjQuery,
        bound: &[BoundTable],
    ) -> Result<QueryResult, RelationalError> {
        let Some(log) = &self.log else {
            return self.inner.execute(query, bound);
        };
        let idx = log.borrow_mut().begin("execute");
        let before = thread_stats();
        let out = self.inner.execute(query, bound);
        let d = thread_stats().since(before);
        let mut l = log.borrow_mut();
        l.end(idx);
        add_exec(&mut l.source_exec, &d);
        out
    }

    fn fetch_relation_at(
        &mut self,
        source: SourceId,
        relation: &str,
        version: u64,
    ) -> Result<Relation, RelationalError> {
        let inner = &mut self.inner;
        SpanLog::scope(self.log.as_ref(), "fetch_relation_at", || {
            inner.fetch_relation_at(source, relation, version)
        })
    }

    fn locate(&mut self, relation: &str) -> Option<SourceId> {
        self.inner.locate(relation)
    }

    fn source_version(&mut self, source: SourceId) -> u64 {
        self.inner.source_version(source)
    }

    fn charge_local(&mut self, tuples: u64) {
        self.inner.charge_local(tuples);
    }

    fn charge_mv_write(&mut self, tuples: u64) {
        self.inner.charge_mv_write(tuples);
    }

    fn drain_arrivals(&mut self) -> Vec<UpdateMessage> {
        let inner = &mut self.inner;
        let msgs = SpanLog::scope(self.log.as_ref(), "drain_arrivals", || inner.drain_arrivals());
        self.arrivals.extend(msgs.iter().map(|m| (m.source, m.source_version)));
        msgs
    }

    fn on_maintenance_event(&mut self, event: MaintEvent) {
        self.inner.on_maintenance_event(event);
    }
}

/// The `durable` layer probe: a [`Storage`] decorator over [`MemStorage`].
/// Clones share the buffer, the byte count and the span log, as the WAL
/// clones its storage.
#[derive(Debug, Clone)]
pub struct ProbedStorage {
    inner: MemStorage,
    /// Bytes written by `append` and `replace`.
    pub bytes: Rc<Cell<u64>>,
    log: Option<SharedLog>,
}

impl ProbedStorage {
    pub fn new(log: Option<SharedLog>) -> Self {
        ProbedStorage { inner: MemStorage::new(), bytes: Rc::default(), log }
    }
}

impl Storage for ProbedStorage {
    fn read_all(&self) -> Result<Vec<u8>, StorageError> {
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.bytes.set(self.bytes.get() + bytes.len() as u64);
        let inner = &mut self.inner;
        SpanLog::scope(self.log.as_ref(), "append", || inner.append(bytes))
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.bytes.set(self.bytes.get() + bytes.len() as u64);
        let inner = &mut self.inner;
        SpanLog::scope(self.log.as_ref(), "replace", || inner.replace(bytes))
    }

    fn len(&self) -> Result<u64, StorageError> {
        self.inner.len()
    }

    fn box_clone(&self) -> Box<dyn Storage> {
        Box::new(self.clone())
    }
}
