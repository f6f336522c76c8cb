//! Offline stand-in for `crossbeam-channel`.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors a Mutex+Condvar channel implementing the surface the prefetch
//! pipeline uses: [`bounded`], [`unbounded`], one [`Sender`] and one
//! [`Receiver`] per channel, blocking `send`/`recv`, and non-blocking
//! `try_recv`, with disconnect detection on both sides. Semantics match
//! crossbeam's: `send` on a bounded channel blocks while full, errors
//! once the receiver is gone; `recv` drains remaining messages before
//! reporting disconnection.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// The sending side failed because the receiver was dropped; the
/// unsent message is returned.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// The receiving side found the channel empty with the sender dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Outcome of a non-blocking receive attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message available right now.
    Empty,
    /// No message available and all senders dropped.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    sender_gone: bool,
    receiver_gone: bool,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    cap: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Producer half.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Consumer half.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Channel with a fixed capacity; `send` blocks while full.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    new_chan(Some(cap.max(1)))
}

/// Channel with unlimited capacity; `send` never blocks.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    new_chan(None)
}

fn new_chan<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            sender_gone: false,
            receiver_gone: false,
        }),
        cap,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Deliver `value`, blocking while the channel is at capacity.
    /// Fails (returning the value) once the receiver is dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.chan.state.lock().unwrap();
        loop {
            if st.receiver_gone {
                return Err(SendError(value));
            }
            match self.chan.cap {
                Some(cap) if st.queue.len() >= cap => {
                    st = self.chan.not_full.wait(st).unwrap();
                }
                _ => break,
            }
        }
        st.queue.push_back(value);
        drop(st);
        self.chan.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.chan.state.lock().unwrap().sender_gone = true;
        self.chan.not_empty.notify_all();
    }
}

impl<T> Receiver<T> {
    /// Take the next message, blocking until one arrives. Fails only
    /// when the channel is empty and the sender is dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.chan.state.lock().unwrap();
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.chan.not_full.notify_one();
                return Ok(v);
            }
            if st.sender_gone {
                return Err(RecvError);
            }
            st = self.chan.not_empty.wait(st).unwrap();
        }
    }

    /// Take the next message if one is ready, without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.chan.state.lock().unwrap();
        if let Some(v) = st.queue.pop_front() {
            drop(st);
            self.chan.not_full.notify_one();
            return Ok(v);
        }
        if st.sender_gone {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.state.lock().unwrap().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity the channel was created with; `None` if unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.chan.cap
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.chan.state.lock().unwrap().receiver_gone = true;
        // A sender blocked on a full channel must learn it can stop.
        self.chan.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t = thread::spawn(move || {
            tx.send(3).unwrap(); // must block until a recv frees a slot
            tx.send(4).unwrap();
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(rx.recv(), Ok(4));
        t.join().unwrap();
    }

    #[test]
    fn disconnect_detection() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7)); // drains before reporting disconnect
        assert_eq!(rx.recv(), Err(RecvError));

        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
    }

    #[test]
    fn try_recv_states() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(5).unwrap();
        assert_eq!(rx.try_recv(), Ok(5));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = bounded(1);
        let producer = thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = (0..100).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
        producer.join().unwrap();
    }
}
