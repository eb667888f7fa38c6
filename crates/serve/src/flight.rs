//! Singleflight: collapse concurrent identical queries into one wave.
//!
//! A query's flight key is its cache key: its normalized SOIF encoding
//! (see [`starts_meta::pipeline::normalized_query_key`]), plus the
//! selected source set when the selector reads state beyond the catalog
//! — under one that does not, the encoding alone fixes the selection.
//! Two queries with the same key are wire-identical to every source, so
//! dispatching both buys nothing. The first caller to take a key with a
//! running slot becomes the *leader* and runs the wave; one that finds
//! the key in flight parks its `ResponseSlot` on the leader's entry and
//! frees its running slot — a duplicate costs no wave capacity while it
//! waits.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use crate::executor::{ServeError, ServeOutcome};

/// A one-shot rendezvous between a caller and whichever thread produces
/// its response: the caller itself when it leads its wave, or the
/// leader of the flight it joined. The caller blocks in
/// [`ResponseSlot::wait`]; the first [`ResponseSlot::fulfill`] wins and
/// later ones are ignored.
#[derive(Default)]
pub(crate) struct ResponseSlot {
    state: Mutex<Option<Result<ServeOutcome, ServeError>>>,
    cv: Condvar,
}

impl ResponseSlot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ResponseSlot::default())
    }

    /// Deliver the outcome; only the first delivery sticks.
    pub(crate) fn fulfill(&self, outcome: Result<ServeOutcome, ServeError>) {
        let mut state = self.state.lock().expect("slot lock");
        if state.is_none() {
            *state = Some(outcome);
            self.cv.notify_all();
        }
    }

    /// Block until the outcome arrives.
    pub(crate) fn wait(&self) -> Result<ServeOutcome, ServeError> {
        let mut state = self.state.lock().expect("slot lock");
        loop {
            if let Some(outcome) = state.as_ref() {
                return outcome.clone();
            }
            state = self.cv.wait(state).expect("slot lock");
        }
    }
}

/// The in-flight registry: key → the followers waiting on the leader.
///
/// The leader's own slot is *not* registered; it fulfills itself after
/// [`Singleflight::complete`] hands back the followers.
#[derive(Default)]
pub(crate) struct Singleflight {
    flights: Mutex<HashMap<String, Vec<Arc<ResponseSlot>>>>,
}

impl Singleflight {
    /// Either become the leader for `key` (returns `true`) or join an
    /// existing flight as a follower (returns `false`; `slot` will be
    /// fulfilled by the leader). Atomic under one lock, so exactly one
    /// caller per key leads at a time.
    pub(crate) fn lead_or_join(&self, key: &str, slot: &Arc<ResponseSlot>) -> bool {
        let mut flights = self.flights.lock().expect("flights lock");
        match flights.get_mut(key) {
            Some(followers) => {
                followers.push(Arc::clone(slot));
                false
            }
            None => {
                flights.insert(key.to_string(), Vec::new());
                true
            }
        }
    }

    /// Close the flight: remove the key and return the followers for
    /// the leader to fulfill.
    pub(crate) fn complete(&self, key: &str) -> Vec<Arc<ResponseSlot>> {
        self.flights
            .lock()
            .expect("flights lock")
            .remove(key)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_leader_per_key_and_followers_accumulate() {
        let sf = Singleflight::default();
        let a = ResponseSlot::new();
        let b = ResponseSlot::new();
        let c = ResponseSlot::new();
        assert!(sf.lead_or_join("k", &a));
        assert!(!sf.lead_or_join("k", &b));
        assert!(!sf.lead_or_join("k", &c));
        // A different key leads independently.
        assert!(sf.lead_or_join("other", &b));
        let followers = sf.complete("k");
        assert_eq!(followers.len(), 2);
        // The key is free again after completion.
        assert!(sf.lead_or_join("k", &a));
        assert!(sf.complete("missing").is_empty());
    }

    #[test]
    fn slot_first_fulfill_wins() {
        let slot = ResponseSlot::new();
        slot.fulfill(Err(ServeError::Shed));
        slot.fulfill(Err(ServeError::Internal));
        assert_eq!(slot.wait(), Err(ServeError::Shed));
    }

    #[test]
    fn slot_wakes_a_blocked_waiter() {
        let slot = ResponseSlot::new();
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait())
        };
        std::thread::sleep(std::time::Duration::from_millis(5));
        slot.fulfill(Err(ServeError::Shed));
        assert_eq!(waiter.join().unwrap(), Err(ServeError::Shed));
    }
}
