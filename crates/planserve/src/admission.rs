//! Single-flight admission: coalescing identical in-flight synthesis
//! requests.
//!
//! The first thread to request a cold fingerprint becomes the
//! *leader*: it solves, publishes the result, and retires the flight.
//! Every thread that requests the same fingerprint while the flight is
//! open becomes a *waiter*: it blocks on the flight's condvar and
//! receives the leader's plan — a thundering herd of N identical cold
//! requests costs exactly one solve.
//!
//! Exactly-once is guaranteed by ordering: the leader inserts into the
//! store *before* retiring the flight, and a joiner that finds no open
//! flight re-checks the store *while still holding the flight-table
//! lock* ([`FlightTable::join`]'s `recheck` closure). So at every
//! instant a fingerprint is either served by the store, served by an
//! open flight, or safe to lead.
//!
//! A leader that dies without publishing (solver panic) marks the
//! flight failed through [`LeaderGuard`]'s `Drop` and wakes the
//! waiters, which retry admission from the top; one of them becomes
//! the next leader. No flight ever strands its herd.
//!
//! A panic while a flight or the table is locked poisons that lock.
//! Every critical section here leaves its state whole (a flag, an
//! insert or a removal), so the locks are taken through poisoning
//! rather than passing one thread's panic on to every later tenant.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use adapcc_plancache::CachedPlan;

#[derive(Debug, Default)]
struct FlightState {
    done: bool,
    failed: bool,
    result: Option<Arc<CachedPlan>>,
}

/// One in-flight synthesis: the rendezvous between a leader and its
/// waiters.
#[derive(Debug, Default)]
pub struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// Locks `m`, through poisoning (see the module docs).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Flight {
    /// Blocks until the leader publishes or fails; `None` means the
    /// leader died and the caller must retry admission.
    pub fn wait(&self) -> Option<Arc<CachedPlan>> {
        let mut state = lock(&self.state);
        while !state.done && !state.failed {
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.result.clone()
    }

    fn publish(&self, plan: Arc<CachedPlan>) {
        let mut state = lock(&self.state);
        state.done = true;
        state.result = Some(plan);
        self.cv.notify_all();
    }

    fn fail(&self) {
        let mut state = lock(&self.state);
        if !state.done {
            state.failed = true;
            self.cv.notify_all();
        }
    }
}

/// Outcome of one admission attempt.
#[derive(Debug)]
pub enum Joined<'t> {
    /// The store already had the plan (discovered under the table
    /// lock, after a racing leader published).
    Ready(Arc<CachedPlan>),
    /// This thread leads: solve, then [`LeaderGuard::publish`].
    Lead(LeaderGuard<'t>),
    /// Another thread leads; block on [`Flight::wait`].
    Wait(Arc<Flight>),
}

/// The open flights, keyed by fingerprint.
#[derive(Debug, Default)]
pub struct FlightTable {
    flights: Mutex<HashMap<u128, Arc<Flight>>>,
}

impl FlightTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Joins the flight for `key`, creating it (and leading) if no
    /// flight is open. `recheck` runs under the table lock when no
    /// flight exists and should consult the store: a hit there means a
    /// previous leader just landed and no solve is needed.
    pub fn join(&self, key: u128, recheck: impl FnOnce() -> Option<Arc<CachedPlan>>) -> Joined<'_> {
        let mut flights = lock(&self.flights);
        if let Some(flight) = flights.get(&key) {
            return Joined::Wait(Arc::clone(flight));
        }
        if let Some(plan) = recheck() {
            return Joined::Ready(plan);
        }
        let flight = Arc::new(Flight::default());
        flights.insert(key, Arc::clone(&flight));
        Joined::Lead(LeaderGuard {
            table: self,
            key,
            flight,
            published: false,
        })
    }

    /// Open flights right now (monitoring only).
    pub fn open(&self) -> usize {
        lock(&self.flights).len()
    }

    fn retire(&self, key: u128) {
        lock(&self.flights).remove(&key);
    }
}

/// Leadership of one flight. Publish the solved plan, or drop to mark
/// the flight failed and let a waiter take over.
#[derive(Debug)]
pub struct LeaderGuard<'t> {
    table: &'t FlightTable,
    key: u128,
    flight: Arc<Flight>,
    published: bool,
}

impl LeaderGuard<'_> {
    /// Hands the solved plan to every waiter and retires the flight.
    ///
    /// Callers must insert the plan into the store *before* calling
    /// this — the exactly-once argument in the module docs depends on
    /// that order.
    pub fn publish(mut self, plan: Arc<CachedPlan>) {
        self.flight.publish(plan);
        self.published = true;
        self.table.retire(self.key);
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.flight.fail();
            self.table.retire(self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapcc_synth::solver::PlanSeed;
    use adapcc_synth::strategy::Strategy;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn plan() -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            strategy: Strategy {
                primitive: adapcc_synth::primitive::Primitive::AllReduce,
                subs: vec![],
            },
            seed: PlanSeed::default(),
        })
    }

    #[test]
    fn sole_requester_leads_and_publishes() {
        let table = FlightTable::new();
        let Joined::Lead(lead) = table.join(1, || None) else {
            panic!("empty table must elect a leader");
        };
        assert_eq!(table.open(), 1);
        lead.publish(plan());
        assert_eq!(table.open(), 0);
    }

    #[test]
    fn recheck_hit_short_circuits_leadership() {
        let table = FlightTable::new();
        let p = plan();
        match table.join(1, || Some(Arc::clone(&p))) {
            Joined::Ready(got) => assert!(Arc::ptr_eq(&got, &p)),
            other => panic!("expected Ready, got {other:?}"),
        }
        assert_eq!(table.open(), 0, "no flight opened");
    }

    #[test]
    fn herd_waits_on_the_leader() {
        let table = FlightTable::new();
        let solves = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                handles.push(scope.spawn(|| match table.join(42, || None) {
                    Joined::Lead(lead) => {
                        solves.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the
                        // herd to pile up.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        let p = plan();
                        lead.publish(Arc::clone(&p));
                        p
                    }
                    Joined::Wait(flight) => flight.wait().expect("leader published"),
                    Joined::Ready(p) => p,
                }));
            }
            let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(solves.load(Ordering::SeqCst), 1, "exactly one leader");
            for p in &plans[1..] {
                assert_eq!(**p, *plans[0], "waiters see the leader's plan");
            }
        });
        assert_eq!(table.open(), 0);
    }

    #[test]
    fn failed_leader_wakes_waiters_for_retry() {
        let table = FlightTable::new();
        let Joined::Lead(lead) = table.join(7, || None) else {
            panic!("expected leadership");
        };
        let Joined::Wait(flight) = table.join(7, || None) else {
            panic!("expected to wait behind the leader");
        };
        let waiter = std::thread::spawn(move || flight.wait());
        drop(lead); // leader dies without publishing
        assert_eq!(waiter.join().unwrap(), None, "waiter told to retry");
        assert_eq!(table.open(), 0, "failed flight retired");
        // Retry elects a fresh leader.
        assert!(matches!(table.join(7, || None), Joined::Lead(_)));
    }

    #[test]
    fn poisoned_flight_locks_still_admit_and_publish() {
        let table = FlightTable::new();
        let Joined::Lead(lead) = table.join(1, || None) else {
            panic!("expected leadership");
        };
        let Joined::Wait(flight) = table.join(1, || None) else {
            panic!("expected to wait behind the leader");
        };
        // A panic while holding the flight's lock and the table's lock.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _state = flight.state.lock().unwrap();
            let _flights = table.flights.lock().unwrap();
            panic!("tenant crashed under the locks");
        }));
        assert!(outcome.is_err());
        assert!(flight.state.is_poisoned() && table.flights.is_poisoned());
        assert_eq!(table.open(), 1);
        lead.publish(plan());
        assert_eq!(flight.wait(), Some(plan()), "waiters still get the plan");
        assert_eq!(table.open(), 0);
        assert!(matches!(table.join(2, || None), Joined::Lead(_)));
    }
}
