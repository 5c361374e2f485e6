//! In-memory session store: many live AL sessions behind sharded locks,
//! plus a warm-start cache of fitted hyperparameters.
//!
//! The serving shape the ROADMAP asks for: sessions are keyed by a
//! caller-chosen `u64` id, a session's shard is `id % n_shards`, and each
//! shard is an independent [`parking_lot::Mutex`] over an ordered map —
//! no cross-shard locks are ever held, so operations on sessions in
//! different shards never contend. GP work never runs under a shard lock
//! (the alint L7 contract): [`SessionStore::observe`] checks the session
//! out of its shard, runs the refit/select step unlocked, and checks the
//! successor state back in, so a slow fit on one session never blocks its
//! shard-mates. Per-session call ordering is what makes
//! [`crate::session::step`] deterministic, and the concurrency suite
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
//! order is a pure function of the operation history (alint L6).

use crate::session::{Decision, Observation, SessionConfig, SessionState, WarmHyperparams};
use crate::trajectory::Trajectory;
use al_gp::GpError;
use parking_lot::Mutex;
use std::collections::BTreeMap;

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
/// state — which keeps the store inside alint L6's determinism contract.
///
/// Linear scans are deliberate: capacities here are tens of grid/kernel
/// pairs, far below where a map + intrusive list would win.
#[derive(Debug, Clone)]
pub struct HyperparamLru {
    capacity: usize,
    entries: Vec<(WarmKey, WarmHyperparams)>,
}

impl HyperparamLru {
    /// Create a cache holding at most `capacity` entries (≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be at least 1");
        HyperparamLru {
            capacity,
            entries: Vec::new(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
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
        if self.entries.len() > self.capacity {
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

/// One live session plus its serving metadata.
struct Entry {
    state: SessionState,
    decision: Decision,
    warm_key: Option<WarmKey>,
}

/// Sharded map of live AL sessions with a shared warm-start cache.
///
/// See the module docs for the locking and warm-start design. The store
/// is `Sync`: shards are independent mutexes, and the warm cache is its
/// own lock taken only at session create/finish (never while a shard
/// lock is held for stepping — create takes warm-then-shard, finish takes
/// shard-then-warm, but finish drops the shard lock before touching the
/// cache, so lock order can never invert).
pub struct SessionStore {
    shards: Vec<Mutex<BTreeMap<u64, Entry>>>,
    warm: Mutex<HyperparamLru>,
}

impl SessionStore {
    /// Create a store with `n_shards` shards (≥ 1) and the default
    /// warm-cache capacity of 32 grid/kernel pairs.
    pub fn new(n_shards: usize) -> Self {
        Self::with_warm_capacity(n_shards, 32)
    }

    /// Create a store with an explicit warm-cache capacity.
    pub fn with_warm_capacity(n_shards: usize, warm_capacity: usize) -> Self {
        assert!(n_shards >= 1, "store needs at least one shard");
        SessionStore {
            shards: (0..n_shards).map(|_| Mutex::new(BTreeMap::new())).collect(),
            warm: Mutex::new(HyperparamLru::new(warm_capacity)),
        }
    }

    fn shard(&self, id: u64) -> &Mutex<BTreeMap<u64, Entry>> {
        let n = self.shards.len() as u64;
        &self.shards[(id % n) as usize]
    }

    /// Number of live sessions across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `id` names a live session.
    pub fn contains(&self, id: u64) -> bool {
        self.shard(id).lock().contains_key(&id)
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
        let warm = match &warm_key {
            Some(key) => self.warm.lock().get(key).cloned(),
            None => None,
        };
        let (state, decision) = SessionState::start_warm(config, warm.as_ref())?;
        let mut shard = self.shard(id).lock();
        if shard.contains_key(&id) {
            return Err(SessionError::DuplicateSession(id));
        }
        shard.insert(
            id,
            Entry {
                state,
                decision,
                warm_key,
            },
        );
        Ok(decision)
    }

    /// The session's current decision (its outstanding query or stop).
    pub fn decision(&self, id: u64) -> Result<Decision, SessionError> {
        let shard = self.shard(id).lock();
        shard
            .get(&id)
            .map(|e| e.decision)
            .ok_or(SessionError::UnknownSession(id))
    }

    /// Feed the result of a session's outstanding query; returns the next
    /// decision.
    ///
    /// The observation is validated against the outstanding query, and its
    /// responses and features checked finite, before any state is touched,
    /// so a mismatched or non-finite report leaves the session intact. A
    /// GP failure mid-step is fatal for that session: it is
    /// removed from the store and the error returned.
    ///
    /// The GP step runs with the shard guard dropped (alint L7: no fit
    /// work under a lock): the session is checked out of the shard, the
    /// refit/select step runs unlocked, and the successor state is checked
    /// back in. While a session is checked out its id reads as absent —
    /// harmless under the one-caller-per-session contract the concurrency
    /// suite exercises, and a `create` racing into the gap loses its map
    /// slot here, surfacing as [`SessionError::DuplicateSession`] rather
    /// than a silently dropped session.
    pub fn observe(&self, id: u64, obs: &Observation) -> Result<Decision, SessionError> {
        use std::collections::btree_map::Entry as MapEntry;
        let Entry {
            state,
            warm_key,
            decision: _,
        } = {
            let mut shard = self.shard(id).lock();
            let entry = shard.get_mut(&id).ok_or(SessionError::UnknownSession(id))?;
            let expected = entry.state.awaiting();
            if expected != Some(obs.dataset_index) {
                return Err(SessionError::ObservationMismatch {
                    id,
                    expected,
                    got: obs.dataset_index,
                });
            }
            if !obs.log_cost.is_finite()
                || !obs.log_mem.is_finite()
                || obs.features_scaled.iter().any(|v| !v.is_finite())
            {
                return Err(SessionError::Gp(GpError::NonFiniteTrainingData {
                    row: entry.state.training_rows(),
                }));
            }
            match shard.remove(&id) {
                Some(entry) => entry,
                None => return Err(SessionError::UnknownSession(id)),
            }
        };
        match state.step(obs) {
            Ok((state, decision)) => {
                match self.shard(id).lock().entry(id) {
                    MapEntry::Occupied(_) => return Err(SessionError::DuplicateSession(id)),
                    MapEntry::Vacant(slot) => slot.insert(Entry {
                        state,
                        decision,
                        warm_key,
                    }),
                };
                Ok(decision)
            }
            Err(e) => Err(SessionError::Gp(e)),
        }
    }

    /// Remove a session and return its trajectory.
    ///
    /// If the session ran to a stop and carries a warm key, its fitted
    /// hyperparameters are published to the warm cache for future
    /// sessions (shard lock released first; see the module docs).
    pub fn finish(&self, id: u64) -> Result<Trajectory, SessionError> {
        let entry = {
            let mut shard = self.shard(id).lock();
            shard.remove(&id).ok_or(SessionError::UnknownSession(id))?
        };
        if let (Some(key), Some(_)) = (&entry.warm_key, entry.state.stop_reason()) {
            self.warm
                .lock()
                .insert(key.clone(), entry.state.warm_hyperparams());
        }
        Ok(entry.state.into_trajectory())
    }

    /// Snapshot of the warm cache (recency order), for introspection.
    pub fn warm_keys(&self) -> Vec<WarmKey> {
        self.warm.lock().iter().map(|(k, _)| k.clone()).collect()
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
        let mut lru = HyperparamLru::new(2);
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
        let mut lru = HyperparamLru::new(2);
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
    fn finished_sessions_publish_warm_hyperparams() {
        let store = SessionStore::with_warm_capacity(2, 4);
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
