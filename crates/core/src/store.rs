//! In-memory session store: many live AL sessions behind sharded locks,
//! plus a warm-start cache of fitted hyperparameters.
//!
//! The serving shape the ROADMAP asks for: sessions are keyed by a
//! caller-chosen `u64` id, a session's shard is `id % n_shards`, and each
//! shard is an independent [`std::sync::Mutex`] over an ordered map —
//! no cross-shard locks are ever held, so operations on sessions in
//! different shards never contend. GP work never runs under a lock, and
//! the types say so (DESIGN §14): both mutexes live in the private
//! `shards` module, whose container is generic over the session with no
//! trait bounds, so no session method can be called while a guard is
//! live, and clippy bans `Mutex::lock` everywhere else.
//! [`SessionStore::observe`] checks the session out of its shard, runs
//! the refit/select step unlocked, and checks the successor state back
//! in, so a slow fit on one session never blocks its shard-mates.
//! Per-session call ordering is what makes [`SessionState::step`]
//! deterministic, and the concurrency suite
//! (`tests/session_concurrency.rs`) checks that hammering distinct
//! sessions from many threads reproduces the single-threaded trajectories
//! exactly.
//!
//! The warm-start cache is the paper's "reuse the old model's parameters
//! as a starting point" applied across sessions: when a session finishes,
//! its fitted hyperparameters are cached under a [`WarmKey`] (grid,
//! kernel); a new session created with the same key starts its models
//! from those values with the cheap `refit` schedule instead of the
//! multi-start `initial_fit`. The cache is a bounded, deterministic LRU —
//! a plain recency-ordered vector, no hash containers, so iteration
//! order is a pure function of the operation history (DESIGN §9).

use crate::session::{Decision, Observation, SessionConfig, SessionState, WarmHyperparams};
use crate::trajectory::Trajectory;
use al_gp::GpError;
use shards::{Entry, Shards};
use std::num::NonZeroUsize;

/// Warm-start cache key: which candidate grid and kernel family the
/// hyperparameters were fitted on. Sessions over the same grid/kernel
/// pair share a response surface, so their fitted length scales and
/// noise levels transfer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WarmKey {
    /// Candidate-grid label (e.g. `"sweep-600"`).
    pub grid: String,
    /// Kernel label (e.g. `"RBF"`, from `KernelKind::label`).
    pub kernel: String,
}

impl WarmKey {
    /// Convenience constructor.
    pub fn new(grid: impl Into<String>, kernel: impl Into<String>) -> Self {
        WarmKey {
            grid: grid.into(),
            kernel: kernel.into(),
        }
    }
}

/// Bounded LRU of fitted hyperparameters, deterministic by construction.
///
/// Entries live in a recency-ordered vector (least recent at the front);
/// `get` refreshes recency, inserting over capacity evicts the least
/// recent entry. Iteration walks the vector, so the order observed by
/// callers is a pure function of the insert/get history — never of hash
/// state — which keeps the store inside the determinism contract
/// (DESIGN §9).
///
/// Linear scans are deliberate: capacities here are tens of grid/kernel
/// pairs, far below where a map + intrusive list would win.
#[derive(Debug, Clone)]
pub struct HyperparamLru {
    capacity: NonZeroUsize,
    entries: Vec<(WarmKey, WarmHyperparams)>,
}

impl HyperparamLru {
    /// Create a cache holding at most `capacity` entries.
    pub fn new(capacity: NonZeroUsize) -> Self {
        HyperparamLru {
            capacity,
            entries: Vec::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity.get()
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &WarmKey) -> Option<&WarmHyperparams> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        self.entries.push(entry);
        self.entries.last().map(|(_, v)| v)
    }

    /// Insert or overwrite `key` as the most recent entry, evicting the
    /// least recent entry when over capacity. Returns the evicted pair,
    /// if any.
    pub fn insert(
        &mut self,
        key: WarmKey,
        value: WarmHyperparams,
    ) -> Option<(WarmKey, WarmHyperparams)> {
        if let Some(pos) = self.entries.iter().position(|(k, _)| k == &key) {
            self.entries.remove(pos);
        }
        self.entries.push((key, value));
        if self.entries.len() > self.capacity.get() {
            Some(self.entries.remove(0))
        } else {
            None
        }
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&mut self, key: &WarmKey) -> Option<WarmHyperparams> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(pos).1)
    }

    /// Entries from least to most recently used — deterministic given the
    /// operation history.
    pub fn iter(&self) -> impl Iterator<Item = (&WarmKey, &WarmHyperparams)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// Typed errors of the serving layer.
///
/// GP failures come wrapped from the session core; the rest are protocol
/// misuse the store detects *before* touching session state, so a bad
/// request never corrupts a live session.
#[derive(Debug)]
pub enum SessionError {
    /// The underlying GP model failed (fit, augment, or predict).
    Gp(GpError),
    /// No session with this id exists in the store.
    UnknownSession(u64),
    /// A session with this id already exists.
    DuplicateSession(u64),
    /// The observation does not answer the session's outstanding query.
    ObservationMismatch {
        /// Session id.
        id: u64,
        /// Candidate the session asked for (`None`: session is stopped
        /// and awaits nothing).
        expected: Option<usize>,
        /// Candidate the observation answered.
        got: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Gp(e) => write!(f, "session GP failure: {e}"),
            SessionError::UnknownSession(id) => write!(f, "no session with id {id}"),
            SessionError::DuplicateSession(id) => write!(f, "session id {id} already exists"),
            SessionError::ObservationMismatch { id, expected, got } => match expected {
                Some(e) => write!(
                    f,
                    "session {id}: observation answers candidate {got}, outstanding query is {e}"
                ),
                None => write!(
                    f,
                    "session {id}: observation answers candidate {got}, but no query is outstanding"
                ),
            },
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Gp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GpError> for SessionError {
    fn from(e: GpError) -> Self {
        SessionError::Gp(e)
    }
}

/// Warm-cache capacity of every store, in grid/kernel pairs.
const WARM_CAPACITY: NonZeroUsize = match NonZeroUsize::new(32) {
    Some(capacity) => capacity,
    None => unreachable!(),
};

/// The store's two mutexes and every access to them.
///
/// [`Shards`] is generic over the session type with no trait bounds, so
/// inside this module rustc rejects any method call on a session: no fit,
/// solve or step can run under one of its locks. What a lock window needs
/// to decide — the outstanding query, the feature dimension, the row a
/// non-finite observation would take, the warm key — is plain metadata
/// stored beside the session in [`Entry`].
///
/// Each accessor takes exactly one lock through `lock`, returns no guard
/// and takes no closure, so no guard ever nests and the warm-before-shard
/// order cannot invert. `lock` is the workspace's only `Mutex::lock`
/// call: `clippy.toml` bans the method everywhere else, and the helper
/// carries the one `#[expect]` that admits it.
mod shards {
    use super::{HyperparamLru, SessionError, WarmKey};
    use crate::session::{Decision, WarmHyperparams};
    use al_gp::GpError;
    use al_linalg::LinalgError;
    use std::collections::BTreeMap;
    use std::num::NonZeroUsize;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Lock `mutex`, recovering the guard if a panicking holder poisoned
    /// it. No accessor leaves a half-written map behind (each lock window
    /// is one map call on plain data), so the data stays valid.
    #[expect(
        clippy::disallowed_methods,
        reason = "the shard module's one lock site; every accessor locks through it"
    )]
    fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One session plus the serving metadata its lock windows read.
    pub(super) struct Entry<V> {
        pub(super) session: V,
        /// The session's current decision; its query is the outstanding one.
        pub(super) decision: Decision,
        /// Training rows the session holds: the row its next observation
        /// takes.
        pub(super) rows: usize,
        /// Feature dimension of the session's training rows, which its
        /// next observation must match.
        pub(super) dim: usize,
        /// Where a finished session publishes its hyperparameters.
        pub(super) warm_key: Option<WarmKey>,
    }

    /// Sharded session map (`id % n_shards`) plus the warm-start LRU.
    pub(super) struct Shards<V> {
        shards: Vec<Mutex<BTreeMap<u64, Entry<V>>>>,
        warm: Mutex<HyperparamLru>,
    }

    impl<V> Shards<V> {
        /// `n_shards` empty shards (≥ 1) and an empty warm cache.
        pub(super) fn new(n_shards: usize, warm_capacity: NonZeroUsize) -> Self {
            Shards {
                shards: (0..n_shards).map(|_| Mutex::new(BTreeMap::new())).collect(),
                warm: Mutex::new(HyperparamLru::new(warm_capacity)),
            }
        }

        /// Number of shards.
        pub(super) fn count(&self) -> usize {
            self.shards.len()
        }

        fn shard(&self, id: u64) -> &Mutex<BTreeMap<u64, Entry<V>>> {
            let n = self.shards.len() as u64;
            &self.shards[(id % n) as usize]
        }

        /// Live sessions in shard `index`.
        pub(super) fn shard_len(&self, index: usize) -> usize {
            lock(&self.shards[index]).len()
        }

        /// True when `id` is in its shard (a checked-out session is not).
        pub(super) fn contains(&self, id: u64) -> bool {
            lock(self.shard(id)).contains_key(&id)
        }

        /// The stored decision of `id`.
        pub(super) fn decision(&self, id: u64) -> Result<Decision, SessionError> {
            lock(self.shard(id))
                .get(&id)
                .map(|e| e.decision)
                .ok_or(SessionError::UnknownSession(id))
        }

        /// Insert `entry` under a fresh `id`: a new session, or one checked
        /// back in. An id taken in the meantime is a
        /// [`SessionError::DuplicateSession`], and the entry already there
        /// stays.
        pub(super) fn insert(&self, id: u64, entry: Entry<V>) -> Result<(), SessionError> {
            let mut shard = lock(self.shard(id));
            if shard.contains_key(&id) {
                return Err(SessionError::DuplicateSession(id));
            }
            shard.insert(id, entry);
            Ok(())
        }

        /// Take `id` out of its shard to answer candidate `got` with `dim`
        /// features. Unknown, then mismatched, then wrongly dimensioned,
        /// then non-finite (`finite` false) observations are rejected with
        /// the entry left in place.
        pub(super) fn check_out(
            &self,
            id: u64,
            got: usize,
            dim: usize,
            finite: bool,
        ) -> Result<Entry<V>, SessionError> {
            let mut shard = lock(self.shard(id));
            let entry = shard.get(&id).ok_or(SessionError::UnknownSession(id))?;
            let expected = entry.decision.query().map(|q| q.dataset_index);
            if expected != Some(got) {
                return Err(SessionError::ObservationMismatch { id, expected, got });
            }
            if dim != entry.dim {
                return Err(SessionError::Gp(GpError::Linalg(
                    LinalgError::ShapeMismatch {
                        op: "observe",
                        lhs: (1, entry.dim),
                        rhs: (1, dim),
                    },
                )));
            }
            if !finite {
                return Err(SessionError::Gp(GpError::NonFiniteTrainingData {
                    row: entry.rows,
                }));
            }
            shard.remove(&id).ok_or(SessionError::UnknownSession(id))
        }

        /// Remove `id` for good.
        pub(super) fn remove(&self, id: u64) -> Result<Entry<V>, SessionError> {
            lock(self.shard(id))
                .remove(&id)
                .ok_or(SessionError::UnknownSession(id))
        }

        /// Cached hyperparameters for `key`, refreshing its recency.
        pub(super) fn warm_get(&self, key: &WarmKey) -> Option<WarmHyperparams> {
            lock(&self.warm).get(key).cloned()
        }

        /// Cache `value` under `key` as the most recent entry.
        pub(super) fn warm_insert(&self, key: WarmKey, value: WarmHyperparams) {
            lock(&self.warm).insert(key, value);
        }

        /// Cached keys in recency order.
        pub(super) fn warm_keys(&self) -> Vec<WarmKey> {
            lock(&self.warm).iter().map(|(k, _)| k.clone()).collect()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::session::Query;

        fn awaiting(dataset_index: usize) -> Entry<u32> {
            Entry {
                session: 0,
                decision: Decision::Query(Query {
                    dataset_index,
                    pred_cost_log: 0.0,
                    pred_cost_sigma: 1.0,
                    pred_mem_log: 0.0,
                    pred_mem_sigma: 1.0,
                }),
                rows: 3,
                dim: 2,
                warm_key: None,
            }
        }

        fn shards() -> Shards<u32> {
            Shards::new(2, NonZeroUsize::MIN)
        }

        #[test]
        fn check_in_collision_keeps_the_racer() {
            let shards = shards();
            let mut entry = awaiting(7);
            entry.warm_key = Some(WarmKey::new("g", "RBF"));
            assert!(shards.insert(5, entry).is_ok());
            // A mismatched checkout leaves the entry and its metadata.
            assert!(matches!(
                shards.check_out(5, 8, 2, true),
                Err(SessionError::ObservationMismatch { .. })
            ));
            assert!(matches!(shards.decision(5), Ok(Decision::Query(q)) if q.dataset_index == 7));
            let mut checked_out = shards.check_out(5, 7, 2, true).unwrap();
            assert!(!shards.contains(5));
            assert_eq!(checked_out.rows, 3);
            assert_eq!(checked_out.warm_key, Some(WarmKey::new("g", "RBF")));
            // A create races into the checkout gap under the same id.
            let mut racer = awaiting(9);
            racer.session = 1;
            assert!(shards.insert(5, racer).is_ok());
            checked_out.session = 2;
            assert!(matches!(
                shards.insert(5, checked_out),
                Err(SessionError::DuplicateSession(5))
            ));
            let kept = shards.remove(5).unwrap();
            assert_eq!(kept.session, 1);
            assert_eq!(kept.decision.query().map(|q| q.dataset_index), Some(9));
            assert_eq!(shards.shard_len(1), 0);
        }

        #[test]
        fn lock_recovers_a_poisoned_mutex() {
            let mutex = Mutex::new(7u32);
            let holder = std::panic::catch_unwind(|| {
                let _guard = lock(&mutex);
                panic!("a lock holder panics");
            });
            assert!(holder.is_err());
            assert!(mutex.is_poisoned());
            assert_eq!(*lock(&mutex), 7);
        }

        #[test]
        fn check_out_rejects_unknown_then_mismatch_then_dimension_then_non_finite() {
            let shards = shards();
            assert!(shards.insert(4, awaiting(7)).is_ok());
            assert!(matches!(
                shards.check_out(6, 8, 3, false),
                Err(SessionError::UnknownSession(6))
            ));
            assert!(matches!(
                shards.check_out(4, 8, 3, false),
                Err(SessionError::ObservationMismatch {
                    id: 4,
                    expected: Some(7),
                    got: 8,
                })
            ));
            assert!(matches!(
                shards.check_out(4, 7, 3, false),
                Err(SessionError::Gp(GpError::Linalg(
                    LinalgError::ShapeMismatch {
                        op: "observe",
                        lhs: (1, 2),
                        rhs: (1, 3),
                    }
                )))
            ));
            assert!(matches!(
                shards.check_out(4, 7, 2, false),
                Err(SessionError::Gp(GpError::NonFiniteTrainingData { row: 3 }))
            ));
            assert!(shards.contains(4));
        }
    }
}

/// Sharded map of live AL sessions with a shared warm-start cache.
///
/// See the module docs for the locking and warm-start design. The store
/// is `Sync`: shards are independent mutexes, and the warm cache is its
/// own lock, taken only at session create and finish and never while a
/// shard lock is held.
pub struct SessionStore {
    shards: Shards<SessionState>,
}

impl SessionStore {
    /// Create a store with `n_shards` shards (≥ 1) and a warm cache of
    /// `WARM_CAPACITY` (32) grid/kernel pairs.
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards >= 1, "store needs at least one shard");
        SessionStore {
            shards: Shards::new(n_shards, WARM_CAPACITY),
        }
    }

    /// Number of live sessions across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.count())
            .map(|i| self.shards.shard_len(i))
            .sum()
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `id` names a live session.
    pub fn contains(&self, id: u64) -> bool {
        self.shards.contains(id)
    }

    /// Create a session and return its first decision.
    ///
    /// When `warm_key` is provided and the cache holds fitted
    /// hyperparameters for it, the session starts warm (cheap refit from
    /// the cached values); otherwise it performs the full multi-start
    /// initial fit. Warm-started sessions therefore depend on what
    /// finished before them — callers wanting bitwise-reproducible
    /// trajectories should pass `None`.
    pub fn create(
        &self,
        id: u64,
        config: SessionConfig,
        warm_key: Option<WarmKey>,
    ) -> Result<Decision, SessionError> {
        // The expensive fit runs before the shard lock is taken; only the
        // duplicate check and insert happen under it. A duplicate id thus
        // costs a wasted fit, never a poisoned map.
        let warm = warm_key.as_ref().and_then(|key| self.shards.warm_get(key));
        let (session, decision) = SessionState::start_warm(config, warm.as_ref())?;
        self.check_in(id, session, decision, warm_key)?;
        Ok(decision)
    }

    /// The session's current decision (its outstanding query or stop).
    pub fn decision(&self, id: u64) -> Result<Decision, SessionError> {
        self.shards.decision(id)
    }

    /// Feed the result of a session's outstanding query; returns the next
    /// decision.
    ///
    /// The observation is validated against the outstanding query and the
    /// session's feature dimension, and its responses and features checked
    /// finite, before any state is touched, so a mismatched, wrongly
    /// dimensioned or non-finite report leaves the session intact (a wrong
    /// dimension is a
    /// [`LinalgError::ShapeMismatch`](al_linalg::LinalgError::ShapeMismatch)
    /// inside [`SessionError::Gp`]). A
    /// GP failure mid-step is fatal for that session: it is
    /// removed from the store and the error returned.
    ///
    /// The GP step runs with no lock held (the shard module's types admit
    /// no session call under a lock): the session is checked out of its
    /// shard, the refit/select step runs unlocked, and the successor state
    /// is checked back in. While a session is checked out its id reads as
    /// absent — harmless under the one-caller-per-session contract the
    /// concurrency suite exercises, and a `create` racing into the gap
    /// keeps its map slot, surfacing here as
    /// [`SessionError::DuplicateSession`] rather than a silently dropped
    /// session.
    pub fn observe(&self, id: u64, obs: &Observation) -> Result<Decision, SessionError> {
        let finite = obs.log_cost.is_finite()
            && obs.log_mem.is_finite()
            && obs.features_scaled.iter().all(|v| v.is_finite());
        let dim = obs.features_scaled.len();
        let Entry {
            session, warm_key, ..
        } = self.shards.check_out(id, obs.dataset_index, dim, finite)?;
        let (session, decision) = session.step(obs)?;
        self.check_in(id, session, decision, warm_key)?;
        Ok(decision)
    }

    /// Insert `session` under `id` with the metadata its next observation
    /// is checked against.
    fn check_in(
        &self,
        id: u64,
        session: SessionState,
        decision: Decision,
        warm_key: Option<WarmKey>,
    ) -> Result<(), SessionError> {
        let (rows, dim) = (session.training_rows(), session.feature_dim());
        self.shards.insert(
            id,
            Entry {
                session,
                decision,
                rows,
                dim,
                warm_key,
            },
        )
    }

    /// Remove a session and return its trajectory.
    ///
    /// If the session ran to a stop and carries a warm key, its fitted
    /// hyperparameters are published to the warm cache for future
    /// sessions (after the shard lock is released; see the module docs).
    pub fn finish(&self, id: u64) -> Result<Trajectory, SessionError> {
        let Entry {
            session, warm_key, ..
        } = self.shards.remove(id)?;
        if let (Some(key), Some(_)) = (warm_key, session.stop_reason()) {
            self.shards.warm_insert(key, session.warm_hyperparams());
        }
        Ok(session.into_trajectory())
    }

    /// Snapshot of the warm cache (recency order), for introspection.
    pub fn warm_keys(&self) -> Vec<WarmKey> {
        self.shards.warm_keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure::test_util::synth_dataset;
    use crate::procedure::AlOptions;
    use crate::stopping::StopReason;
    use crate::strategy::StrategyKind;
    use al_dataset::Partition;
    use al_gp::FitOptions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lru_value(tag: f64) -> WarmHyperparams {
        WarmHyperparams {
            cost: vec![tag, tag + 0.5],
            mem: vec![-tag],
        }
    }

    #[test]
    fn lru_evicts_least_recent_and_refreshes_on_get() {
        let mut lru = HyperparamLru::new(NonZeroUsize::new(2).unwrap());
        assert!(lru.is_empty());
        assert!(lru
            .insert(WarmKey::new("a", "RBF"), lru_value(1.0))
            .is_none());
        assert!(lru
            .insert(WarmKey::new("b", "RBF"), lru_value(2.0))
            .is_none());
        // Touch "a" so "b" becomes least recent.
        assert!(lru.get(&WarmKey::new("a", "RBF")).is_some());
        let evicted = lru.insert(WarmKey::new("c", "RBF"), lru_value(3.0));
        assert_eq!(evicted.map(|(k, _)| k), Some(WarmKey::new("b", "RBF")));
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&WarmKey::new("b", "RBF")).is_none());
        let order: Vec<&WarmKey> = lru.iter().map(|(k, _)| k).collect();
        assert_eq!(order[0].grid, "a");
        assert_eq!(order[1].grid, "c");
    }

    #[test]
    fn lru_overwrite_keeps_len_and_updates_value() {
        let mut lru = HyperparamLru::new(NonZeroUsize::new(2).unwrap());
        lru.insert(WarmKey::new("a", "RBF"), lru_value(1.0));
        lru.insert(WarmKey::new("a", "RBF"), lru_value(9.0));
        assert_eq!(lru.len(), 1);
        assert_eq!(
            lru.get(&WarmKey::new("a", "RBF")),
            Some(&lru_value(9.0)),
            "hit must return the most recently inserted value"
        );
        assert_eq!(lru.remove(&WarmKey::new("a", "RBF")), Some(lru_value(9.0)));
        assert!(lru.is_empty());
        assert_eq!(lru.capacity(), 2);
    }

    fn fast_opts() -> AlOptions {
        AlOptions {
            initial_fit: FitOptions {
                n_restarts: 0,
                max_iters: 15,
                ..FitOptions::default()
            },
            refit: FitOptions {
                n_restarts: 0,
                max_iters: 5,
                ..FitOptions::default()
            },
            max_iterations: Some(4),
            ..AlOptions::default()
        }
    }

    fn config(seed: u64) -> (SessionConfig, al_dataset::Dataset) {
        let d = synth_dataset(36);
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Partition::random(d.len(), 3, 12, &mut rng);
        let opts = AlOptions {
            seed,
            ..fast_opts()
        };
        (
            SessionConfig::from_partition(&d, &p, StrategyKind::RandUniform, &opts),
            d,
        )
    }

    #[test]
    fn store_lifecycle_create_observe_finish() {
        let store = SessionStore::new(4);
        let (cfg, d) = config(3);
        let mut decision = store.create(7, cfg, None).unwrap();
        assert!(store.contains(7));
        assert_eq!(store.len(), 1);
        while let Decision::Query(q) = decision {
            let obs = Observation::from_dataset(&d, q.dataset_index);
            decision = store.observe(7, &obs).unwrap();
        }
        assert_eq!(decision, Decision::Stop(StopReason::MaxIterations));
        let t = store.finish(7).unwrap();
        assert_eq!(t.len(), 4);
        assert!(store.is_empty());
        assert!(matches!(
            store.finish(7),
            Err(SessionError::UnknownSession(7))
        ));
    }

    #[test]
    fn duplicate_and_unknown_ids_are_typed_errors() {
        let store = SessionStore::new(2);
        let (cfg, d) = config(4);
        store.create(1, cfg.clone(), None).unwrap();
        assert!(matches!(
            store.create(1, cfg, None),
            Err(SessionError::DuplicateSession(1))
        ));
        let obs = Observation::from_dataset(&d, 0);
        assert!(matches!(
            store.observe(99, &obs),
            Err(SessionError::UnknownSession(99))
        ));
    }

    #[test]
    fn mismatched_observation_leaves_session_intact() {
        let store = SessionStore::new(2);
        let (cfg, d) = config(5);
        let decision = store.create(2, cfg, None).unwrap();
        let q = decision.query().unwrap();
        let wrong = (0..d.len()).find(|&i| i != q.dataset_index).unwrap();
        let err = store
            .observe(2, &Observation::from_dataset(&d, wrong))
            .unwrap_err();
        assert!(matches!(err, SessionError::ObservationMismatch { .. }));
        // The session still awaits the same query and can proceed.
        assert_eq!(store.decision(2).unwrap().query(), Some(q));
        let next = store
            .observe(2, &Observation::from_dataset(&d, q.dataset_index))
            .unwrap();
        assert!(next.query().is_some());
    }

    /// Answer every query from the dataset until the session stops, then
    /// finish it.
    fn drive_to_finish(store: &SessionStore, id: u64, d: &al_dataset::Dataset) -> Trajectory {
        let mut decision = store.decision(id).unwrap();
        while let Decision::Query(q) = decision {
            decision = store
                .observe(id, &Observation::from_dataset(d, q.dataset_index))
                .unwrap();
        }
        store.finish(id).unwrap()
    }

    #[test]
    fn non_finite_observation_leaves_session_intact() {
        let (cfg, d) = config(8);
        let clean = SessionStore::new(2);
        clean.create(3, cfg.clone(), None).unwrap();
        let reference = drive_to_finish(&clean, 3, &d);

        let store = SessionStore::new(2);
        let q = store.create(3, cfg, None).unwrap().query().unwrap();
        let mut bad = Observation::from_dataset(&d, q.dataset_index);
        bad.log_cost = f64::NAN;
        // The row the observation would have taken: after the 3 initial ones.
        assert!(matches!(
            store.observe(3, &bad),
            Err(SessionError::Gp(GpError::NonFiniteTrainingData { row: 3 }))
        ));
        assert!(store.contains(3));
        assert_eq!(store.decision(3).unwrap().query(), Some(q));
        assert_eq!(drive_to_finish(&store, 3, &d), reference);
    }

    #[test]
    fn bad_kernel_options_are_typed_create_errors() {
        let (cfg, d) = config(4);
        let (rows, dim) = cfg.init_features.shape();
        let clean = SessionStore::new(2);
        clean.create(1, cfg.clone(), None).unwrap();
        let reference = drive_to_finish(&clean, 1, &d);

        let mut bad = Vec::new();
        for wrong in [dim - 1, dim + 1] {
            let mut c = cfg.clone();
            c.opts.kernel = al_gp::KernelKind::ArdRbf { dim: wrong };
            let e = al_linalg::LinalgError::ShapeMismatch {
                op: "fit",
                lhs: (rows, wrong),
                rhs: (rows, dim),
            };
            bad.push((c, GpError::Linalg(e)));
        }
        for v in [0.0, -0.3, f64::NAN] {
            let mut c = cfg.clone();
            c.opts.init_length_scale = v;
            bad.push((c, GpError::NonFiniteHyperparameter { index: 1 }));
            let mut c = cfg.clone();
            c.opts.noise_variance = v;
            bad.push((c, GpError::NonFiniteHyperparameter { index: 2 }));
        }
        let store = SessionStore::new(2);
        for (id, (c, want)) in (10u64..).zip(bad) {
            match store.create(id, c, None) {
                Err(SessionError::Gp(e)) => assert_eq!(e, want, "session {id}"),
                other => panic!("session {id}: {other:?}"),
            }
            assert!(!store.contains(id));
            // The store keeps serving: a good create right after succeeds.
            store.create(id + 100, cfg.clone(), None).unwrap();
        }
        // ARD built for the features' own dimension is accepted.
        let mut ard = cfg.clone();
        ard.opts.kernel = al_gp::KernelKind::ArdRbf { dim };
        store.create(99, ard, None).unwrap();
        assert_eq!(drive_to_finish(&store, 110, &d), reference);
    }

    #[test]
    fn wrongly_dimensioned_observation_leaves_session_intact() {
        let (cfg, d) = config(8);
        let clean = SessionStore::new(2);
        clean.create(3, cfg.clone(), None).unwrap();
        let reference = drive_to_finish(&clean, 3, &d);

        let store = SessionStore::new(2);
        let q = store.create(3, cfg, None).unwrap().query().unwrap();
        let good = Observation::from_dataset(&d, q.dataset_index);
        let dim = good.features_scaled.len();
        for wrong in [0, dim - 1, dim + 1] {
            let mut bad = good.clone();
            bad.features_scaled.resize(wrong, 0.5);
            assert!(matches!(
                store.observe(3, &bad),
                Err(SessionError::Gp(GpError::Linalg(
                    al_linalg::LinalgError::ShapeMismatch { op: "observe", lhs, rhs }
                ))) if lhs == (1, dim) && rhs == (1, wrong)
            ));
            assert!(store.contains(3));
            assert_eq!(store.decision(3).unwrap().query(), Some(q));
        }
        assert_eq!(drive_to_finish(&store, 3, &d), reference);
    }

    #[test]
    fn finished_sessions_publish_warm_hyperparams() {
        let store = SessionStore::new(2);
        let key = WarmKey::new("synth-36", "RBF");
        let (cfg, d) = config(6);
        let mut decision = store.create(10, cfg.clone(), Some(key.clone())).unwrap();
        while let Decision::Query(q) = decision {
            decision = store
                .observe(10, &Observation::from_dataset(&d, q.dataset_index))
                .unwrap();
        }
        assert!(store.warm_keys().is_empty(), "published only on finish");
        store.finish(10).unwrap();
        assert_eq!(store.warm_keys(), vec![key.clone()]);
        // A second session with the same key starts from the cache.
        store.create(11, cfg, Some(key)).unwrap();
        assert!(store.contains(11));
    }

    #[test]
    fn sessions_land_in_id_modulo_shards() {
        let store = SessionStore::new(3);
        for id in [0u64, 1, 2, 3, 4, 5] {
            let (cfg, _) = config(id + 20);
            store.create(id, cfg, None).unwrap();
        }
        assert!((0..6).all(|id| store.contains(id)));
        assert_eq!(store.len(), 6);
    }

    #[test]
    fn error_display_is_informative() {
        let e = SessionError::ObservationMismatch {
            id: 3,
            expected: Some(7),
            got: 9,
        };
        let msg = format!("{e}");
        assert!(msg.contains("3") && msg.contains("7") && msg.contains("9"));
        assert!(format!("{}", SessionError::UnknownSession(4)).contains("4"));
        assert!(format!("{}", SessionError::DuplicateSession(5)).contains("5"));
    }
}
