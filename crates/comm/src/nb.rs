//! Nonblocking-exchange substrate: the ordered inbox and the epoch state
//! machine behind the split `start_exchange`/`finish_exchange` path.
//!
//! Both types are written against the `dgflow_check` shim seam so the
//! handshake they implement — a producer (socket reader thread) pushing
//! completed messages and notifying, a consumer (`finish_exchange`)
//! blocking until its message is in — is explored exhaustively by the
//! model checker under `--cfg dgcheck_model` (`cargo xtask model`,
//! `crates/check/tests/exchange_model.rs`). The bug classes this protects
//! against are the classic ones of hand-rolled completion queues: a lost
//! completion wakeup (push without notify, or a check-then-wait race) and
//! epoch misuse (finish before start, double finish, a dropped epoch).

use dgflow_check::sync::{Condvar, Mutex};
use std::collections::VecDeque;

/// One tagged message: `(tag, payload)`.
pub type TaggedMsg = (u64, Vec<f64>);

struct InboxState {
    msgs: VecDeque<TaggedMsg>,
    /// `Some(reason)` once the producer is gone; waiting consumers are
    /// woken and every subsequent pop fails with the reason.
    closed: Option<String>,
}

/// An ordered, blocking message inbox: the per-(peer, class) receive
/// queue of [`crate::ProcessComm`]. Messages preserve push order (the
/// per-pair FIFO guarantee the deterministic communication schedules rely
/// on); `pop` blocks until a message arrives or the queue is closed.
pub struct MsgQueue {
    state: Mutex<InboxState>,
    arrived: Condvar,
}

impl Default for MsgQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl MsgQueue {
    pub fn new() -> Self {
        Self {
            state: Mutex::new(InboxState {
                msgs: VecDeque::new(),
                closed: None,
            }),
            arrived: Condvar::new(),
        }
    }

    /// Producer side: enqueue a completed message and wake one waiter.
    pub fn push(&self, tag: u64, data: Vec<f64>) {
        let mut s = self.state.lock();
        s.msgs.push_back((tag, data));
        drop(s);
        self.arrived.notify_one();
    }

    /// Producer side: no more messages will arrive (peer disconnected or
    /// shut down); wakes every waiter.
    pub fn close(&self, reason: &str) {
        let mut s = self.state.lock();
        if s.closed.is_none() {
            s.closed = Some(reason.to_string());
        }
        drop(s);
        self.arrived.notify_all();
    }

    /// Consumer side: dequeue the next message in push order, blocking
    /// until one arrives. `Err(reason)` once the queue is closed and
    /// drained.
    pub fn pop(&self) -> Result<TaggedMsg, String> {
        let mut s = self.state.lock();
        loop {
            if let Some(m) = s.msgs.pop_front() {
                return Ok(m);
            }
            if let Some(reason) = &s.closed {
                return Err(reason.clone());
            }
            self.arrived.wait(&mut s);
        }
    }

    /// Nonblocking variant of [`MsgQueue::pop`]; `Ok(None)` when empty.
    pub fn try_pop(&self) -> Result<Option<TaggedMsg>, String> {
        let mut s = self.state.lock();
        if let Some(m) = s.msgs.pop_front() {
            return Ok(Some(m));
        }
        if let Some(reason) = &s.closed {
            return Err(reason.clone());
        }
        Ok(None)
    }

    /// Number of queued messages (diagnostics only — racy by nature).
    pub fn depth(&self) -> usize {
        self.state.lock().msgs.len()
    }
}

/// The start/finish protocol of one exchange epoch. The ghost-update
/// guard [`crate::dist::HaloUpdate`] owns one of these; misuse of the split path — finishing an epoch
/// that was never started, finishing twice, or dropping a started epoch
/// without completing it — is a programming error and panics with a
/// diagnostic rather than silently corrupting ghost data.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeState {
    /// No epoch in flight.
    #[default]
    Idle,
    /// Sends posted; receives outstanding.
    Started,
    /// Receives completed; the epoch is over.
    Finished,
}

impl ExchangeState {
    /// Open the epoch (post of the eager sends).
    pub fn start(&mut self) {
        assert!(
            *self == ExchangeState::Idle,
            "exchange epoch started twice without an intervening finish \
             (state {self:?}); every start_exchange must be matched by \
             exactly one finish_exchange"
        );
        *self = ExchangeState::Started;
    }

    /// Complete the epoch (all receives done).
    pub fn finish(&mut self) {
        assert!(
            *self == ExchangeState::Started,
            "exchange epoch finished before it was started (state {self:?}); \
             call start_exchange first — the split path is start, overlap \
             compute, then finish"
        );
        *self = ExchangeState::Finished;
    }

    /// True once the epoch completed (used by drop guards to detect an
    /// abandoned in-flight exchange).
    pub fn is_finished(&self) -> bool {
        *self == ExchangeState::Finished
    }

    pub fn is_started(&self) -> bool {
        *self == ExchangeState::Started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_preserves_push_order() {
        let q = MsgQueue::new();
        q.push(1, vec![1.0]);
        q.push(2, vec![2.0]);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop().unwrap().0, 1);
        assert_eq!(q.pop().unwrap().0, 2);
    }

    #[test]
    fn queue_drains_then_reports_close() {
        let q = MsgQueue::new();
        q.push(7, vec![]);
        q.close("peer gone");
        assert_eq!(q.pop().unwrap().0, 7);
        assert_eq!(q.pop().unwrap_err(), "peer gone");
        assert_eq!(q.try_pop().unwrap_err(), "peer gone");
    }

    #[test]
    fn blocked_pop_is_woken_by_push() {
        let q = std::sync::Arc::new(MsgQueue::new());
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop().unwrap().0);
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(42, vec![]);
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn epoch_state_machine_happy_path() {
        let mut e = ExchangeState::default();
        assert!(!e.is_started());
        e.start();
        assert!(e.is_started());
        e.finish();
        assert!(e.is_finished());
    }

    #[test]
    #[should_panic(expected = "finished before it was started")]
    fn finish_before_start_is_detected() {
        let mut e = ExchangeState::default();
        e.finish();
    }

    #[test]
    #[should_panic(expected = "started twice")]
    fn double_start_is_detected() {
        let mut e = ExchangeState::default();
        e.start();
        e.start();
    }
}
