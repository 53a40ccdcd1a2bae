//! Model channel mirroring the `std::sync::mpsc` names and signatures the
//! seam's callers use (`channel`, `Result`-returning `send`/`recv`/
//! `try_recv`, cloneable `Sender`, a single `Receiver`). Sends never
//! block; receives park on the scheduler until a message or full
//! disconnection arrives.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex as StdMutex, PoisonError};

use super::{current, in_execution};

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError { .. }")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is ready, but senders remain.
    Empty,
    /// The channel is empty and all senders are gone.
    Disconnected,
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    /// Model threads parked in `recv`.
    recv_waiters: Vec<usize>,
}

struct Shared<T> {
    inner: StdMutex<Inner<T>>,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sending half of a model channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a model channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create an unbounded FIFO model channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: StdMutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
            recv_waiters: Vec::new(),
        }),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Self {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let waiters = {
            let mut inner = self.shared.lock();
            inner.senders -= 1;
            if inner.senders == 0 {
                // disconnection is a wakeup event for parked receivers
                std::mem::take(&mut inner.recv_waiters)
            } else {
                Vec::new()
            }
        };
        if !waiters.is_empty() && in_execution() {
            let (ctl, _) = current();
            for w in waiters {
                ctl.make_runnable(w);
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receiver_alive = false;
    }
}

impl<T> Sender<T> {
    /// Send a message (a switch point; never parks).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let (ctl, me) = current();
        if !ctl.teardown_unwind() {
            ctl.switch(me, "channel::send");
        }
        let woken = {
            let mut inner = self.shared.lock();
            if !inner.receiver_alive {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            if inner.recv_waiters.is_empty() {
                None
            } else {
                Some(inner.recv_waiters.remove(0))
            }
        };
        if let Some(w) = woken {
            ctl.make_runnable(w);
        }
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Park until a message arrives, failing once the channel is drained
    /// and all senders are gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let (ctl, me) = current();
        if !ctl.teardown_unwind() {
            ctl.switch(me, "channel::recv");
        }
        loop {
            {
                let mut inner = self.shared.lock();
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                if ctl.teardown_unwind() {
                    return Err(RecvError);
                }
                inner.recv_waiters.push(me);
            }
            ctl.block(me, "channel::recv (parked)");
        }
    }

    /// Non-blocking receive (a switch point).
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let (ctl, me) = current();
        if !ctl.teardown_unwind() {
            ctl.switch(me, "channel::try_recv");
        }
        let mut inner = self.shared.lock();
        match inner.queue.pop_front() {
            Some(v) => Ok(v),
            None if inner.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }
}
