//! Multi-reference hosting: a catalog of [`RefSession`]s behind stable
//! handles, with a byte budget enforced by LRU eviction.
//!
//! A production MEM service hosts many references (pangenome panels,
//! versioned assemblies) but their resident row indexes compete for
//! device memory — the scarce resource the lazy-evaluation line of
//! work (Goga et al.) manages. The [`Registry`] owns one
//! [`RefSession`] per registered `(reference, config)` pair, keeps
//! their combined resident bytes (the per-session
//! [`SeedIndex::memory_bytes`](gpumem_index::SeedIndex::memory_bytes)
//! sum — the same index-size accounting `BufferPool.pool_peak_bytes`
//! gauges on-device) under a configurable budget by evicting the
//! least-recently-used *cold* sessions, and never evicts a pinned
//! session, so in-flight runs cannot lose their index mid-query.
//!
//! Eviction drops a session's built row indexes, not its registration:
//! the [`RefHandle`] stays valid and the next touch rebuilds lazily,
//! exactly like a first-ever query against a cold session.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use gpu_sim::DeviceSpec;
use gpumem_seq::PackedSeq;

use crate::config::GpumemConfig;
use crate::engine::RefSession;
use crate::pipeline::RunError;
use crate::telemetry::{emit, Event, EventSink, WallClock};

/// A stable, copyable handle to a registered reference session. Stays
/// valid across evictions (only [`Registry::remove`] retires it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RefHandle(u64);

impl RefHandle {
    /// The raw handle id (stable for the registry's lifetime; useful
    /// for logs and handle files).
    pub fn id(&self) -> u64 {
        self.0
    }
}

struct Entry {
    name: String,
    reference: Arc<PackedSeq>,
    session: Arc<RefSession>,
    pins: u32,
    last_touch: u64,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    /// Dedup key: reference identity (`Arc` pointer — kept alive by the
    /// entry, so never recycled while registered) + the full config.
    by_key: HashMap<(usize, GpumemConfig), u64>,
    next_handle: u64,
    clock: u64,
}

/// Point-in-time registry counters; folded into
/// [`MetricsSnapshot`](crate::engine::MetricsSnapshot) (zeros with
/// `attached: false` when the engine has no registry).
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct RegistryStats {
    /// `true` when these counters come from a live registry.
    pub attached: bool,
    /// Registered reference sessions.
    pub references: u64,
    /// Currently pinned sessions (never evictable).
    pub pinned: u64,
    /// Summed resident row-index bytes across all sessions.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: u64,
    /// The byte budget (0 = unbounded).
    pub budget_bytes: u64,
    /// Touches that found the session resident (warm).
    pub hits: u64,
    /// Touches that found the session cold (fresh or evicted).
    pub misses: u64,
    /// Sessions evicted to stay under the budget.
    pub evictions: u64,
}

/// One row of [`Registry::list`].
#[derive(Clone, Debug)]
pub struct RefEntryInfo {
    /// The entry's handle.
    pub handle: RefHandle,
    /// The name it was registered under.
    pub name: String,
    /// Reference length in bases.
    pub ref_len: usize,
    /// Tile rows (index cache slots) of the session.
    pub rows: usize,
    /// Row indexes currently resident.
    pub resident_rows: usize,
    /// Resident row-index bytes.
    pub resident_bytes: u64,
    /// Active pins.
    pub pins: u32,
}

/// A catalog of [`RefSession`]s with byte-budgeted LRU eviction. See
/// the module docs; create with [`Registry::new`] /
/// [`Registry::with_budget`] and hand out [`RefHandle`]s.
pub struct Registry {
    spec: DeviceSpec,
    budget: Option<u64>,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    peak: AtomicU64,
    /// Journal sink for `evict`/`pin`/`unpin` events (none by default —
    /// the zero-cost-off contract), stamped on the process clock.
    events: Mutex<Option<Arc<dyn EventSink>>>,
}

impl Registry {
    /// An unbounded registry whose sessions validate against `spec`.
    pub fn new(spec: DeviceSpec) -> Registry {
        Registry::build(spec, None)
    }

    /// A registry that evicts cold sessions LRU-first whenever the
    /// summed resident row-index bytes exceed `budget_bytes`.
    pub fn with_budget(spec: DeviceSpec, budget_bytes: u64) -> Registry {
        Registry::build(spec, Some(budget_bytes))
    }

    fn build(spec: DeviceSpec, budget: Option<u64>) -> Registry {
        Registry {
            spec,
            budget,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                by_key: HashMap::new(),
                next_handle: 0,
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            events: Mutex::new(None),
        }
    }

    /// Attach (or detach, with `None`) a journal sink: the registry
    /// emits `evict`, `pin`, and `unpin` events into it. Events fire
    /// while the registry holds its sink (and evictions while it holds
    /// its own lock), so sinks must not call back into the registry.
    pub fn set_event_sink(&self, sink: Option<Arc<dyn EventSink>>) {
        *self.events.lock() = sink;
    }

    /// The device spec sessions validate against.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Register `(reference, config)` under `name`, or return the
    /// existing handle if that exact pair is already registered (the
    /// registered name wins; `name` is ignored on dedup). Counts as a
    /// touch of the entry.
    pub fn add(
        &self,
        name: &str,
        reference: Arc<PackedSeq>,
        config: GpumemConfig,
    ) -> Result<RefHandle, RunError> {
        let key = (Arc::as_ptr(&reference) as usize, config.clone());
        let mut inner = self.inner.lock();
        if let Some(&id) = inner.by_key.get(&key) {
            self.touch_locked(&mut inner, id);
            return Ok(RefHandle(id));
        }
        let session = Arc::new(RefSession::new(Arc::clone(&reference), config, &self.spec)?);
        let id = inner.next_handle;
        inner.next_handle += 1;
        inner.clock += 1;
        let clock = inner.clock;
        inner.entries.insert(
            id,
            Entry {
                name: name.to_string(),
                reference,
                session,
                pins: 0,
                last_touch: clock,
            },
        );
        inner.by_key.insert(key, id);
        // A fresh session is cold by definition.
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(RefHandle(id))
    }

    /// The handle registered under `name`, if any (first match by
    /// registration order on duplicates).
    pub fn handle_by_name(&self, name: &str) -> Option<RefHandle> {
        let inner = self.inner.lock();
        inner
            .entries
            .iter()
            .filter(|(_, e)| e.name == name)
            .map(|(&id, _)| id)
            .min()
            .map(RefHandle)
    }

    /// The session behind `handle` (a touch: refreshes LRU recency,
    /// counts a hit or miss, and enforces the budget).
    pub fn session(&self, handle: RefHandle) -> Option<Arc<RefSession>> {
        let mut inner = self.inner.lock();
        let session = {
            let entry = inner.entries.get(&handle.0)?;
            Arc::clone(&entry.session)
        };
        self.touch_locked(&mut inner, handle.0);
        Some(session)
    }

    /// Pin `handle`'s session: the returned guard keeps it immune to
    /// eviction until dropped. A touch, like [`Registry::session`].
    pub fn pin(self: &Arc<Self>, handle: RefHandle) -> Option<PinnedSession> {
        let mut inner = self.inner.lock();
        let (session, pins) = {
            let entry = inner.entries.get_mut(&handle.0)?;
            entry.pins += 1;
            (Arc::clone(&entry.session), entry.pins)
        };
        self.touch_locked(&mut inner, handle.0);
        drop(inner);
        emit(self.events.lock().as_deref(), &WallClock, |ts| {
            Event::new("pin", ts)
                .with_u64("handle", handle.0)
                .with_u64("pins", pins as u64)
        });
        Some(PinnedSession {
            registry: Arc::clone(self),
            handle,
            session,
        })
    }

    fn unpin(&self, handle: RefHandle) {
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.entries.get_mut(&handle.0) {
            entry.pins = entry.pins.saturating_sub(1);
        }
        self.enforce_locked(&mut inner);
        drop(inner);
        emit(self.events.lock().as_deref(), &WallClock, |ts| {
            Event::new("unpin", ts).with_u64("handle", handle.0)
        });
    }

    /// Refresh `handle`'s recency and enforce the budget — what a bound
    /// engine calls after every completed query, so lazy builds made
    /// during the run are charged promptly.
    pub fn touch(&self, handle: RefHandle) {
        let mut inner = self.inner.lock();
        if inner.entries.contains_key(&handle.0) {
            self.touch_locked(&mut inner, handle.0);
        }
    }

    /// Retire `handle` entirely (handle becomes invalid). Refuses while
    /// pinned; returns whether the entry was removed.
    pub fn remove(&self, handle: RefHandle) -> bool {
        let mut inner = self.inner.lock();
        match inner.entries.get(&handle.0) {
            Some(entry) if entry.pins == 0 => {
                let entry = inner.entries.remove(&handle.0).expect("checked");
                let key = (
                    Arc::as_ptr(&entry.reference) as usize,
                    entry.session.config().clone(),
                );
                inner.by_key.remove(&key);
                true
            }
            _ => false,
        }
    }

    /// Evict cold sessions (LRU first) until resident bytes fit the
    /// budget. Automatic on every touch/unpin; callable directly.
    pub fn enforce_budget(&self) {
        let mut inner = self.inner.lock();
        self.enforce_locked(&mut inner);
    }

    /// Summed resident row-index bytes across all sessions.
    pub fn resident_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .entries
            .values()
            .map(|e| e.session.resident_bytes())
            .sum()
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A listing of every entry, ordered by handle.
    pub fn list(&self) -> Vec<RefEntryInfo> {
        let inner = self.inner.lock();
        let mut ids: Vec<u64> = inner.entries.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                let e = &inner.entries[&id];
                RefEntryInfo {
                    handle: RefHandle(id),
                    name: e.name.clone(),
                    ref_len: e.reference.len(),
                    rows: e.session.rows(),
                    resident_rows: e.session.resident_rows(),
                    resident_bytes: e.session.resident_bytes(),
                    pins: e.pins,
                }
            })
            .collect()
    }

    /// The registry counters (see [`RegistryStats`]).
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock();
        let resident: u64 = inner
            .entries
            .values()
            .map(|e| e.session.resident_bytes())
            .sum();
        RegistryStats {
            attached: true,
            references: inner.entries.len() as u64,
            pinned: inner.entries.values().filter(|e| e.pins > 0).count() as u64,
            resident_bytes: resident,
            peak_resident_bytes: self.peak.load(Ordering::Relaxed).max(resident),
            budget_bytes: self.budget.unwrap_or(0),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Touch semantics: bump recency, count warm/cold, enforce budget.
    fn touch_locked(&self, inner: &mut Inner, id: u64) {
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.entries.get_mut(&id).expect("touched entry exists");
        entry.last_touch = clock;
        if entry.session.resident_rows() > 0 {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.enforce_locked(inner);
    }

    fn enforce_locked(&self, inner: &mut Inner) {
        let mut resident: u64 = inner
            .entries
            .values()
            .map(|e| e.session.resident_bytes())
            .sum();
        self.peak.fetch_max(resident, Ordering::Relaxed);
        let Some(budget) = self.budget else {
            return;
        };
        if resident <= budget {
            return;
        }
        // Cold candidates, least recently touched first; ties by
        // handle id for determinism.
        let mut victims: Vec<(u64, u64)> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.pins == 0 && e.session.resident_bytes() > 0)
            .map(|(&id, e)| (e.last_touch, id))
            .collect();
        victims.sort_unstable();
        for (_, id) in victims {
            if resident <= budget {
                break;
            }
            let freed = inner.entries[&id].session.evict_rows();
            if freed > 0 {
                resident = resident.saturating_sub(freed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                // Emitted under the registry lock — see
                // [`Registry::set_event_sink`]'s no-reentrancy contract.
                emit(self.events.lock().as_deref(), &WallClock, |ts| {
                    Event::new("evict", ts)
                        .with_u64("handle", id)
                        .with_str("name", &inner.entries[&id].name)
                        .with_u64("freed_bytes", freed)
                });
            }
        }
    }
}

/// An eviction-immunity guard from [`Registry::pin`]: while alive, the
/// pinned session's rows are never evicted (its bytes still count
/// toward the budget — the budget bounds *eviction pressure*, and a
/// pinned working set larger than the budget simply cannot be shrunk).
/// Dropping the guard unpins and re-enforces the budget.
pub struct PinnedSession {
    registry: Arc<Registry>,
    handle: RefHandle,
    session: Arc<RefSession>,
}

impl PinnedSession {
    /// The pinned session.
    pub fn session(&self) -> &Arc<RefSession> {
        &self.session
    }

    /// The pinned entry's handle.
    pub fn handle(&self) -> RefHandle {
        self.handle
    }

    /// The registry the entry is pinned in.
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

impl Drop for PinnedSession {
    fn drop(&mut self) {
        self.registry.unpin(self.handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use gpumem_seq::GenomeModel;

    fn config() -> GpumemConfig {
        GpumemConfig::builder(16)
            .seed_len(8)
            .threads_per_block(8)
            .blocks_per_tile(2)
            .build()
            .unwrap()
    }

    fn reference(len: usize, seed: u64) -> Arc<PackedSeq> {
        Arc::new(GenomeModel::mammalian().generate(len, seed))
    }

    #[test]
    fn add_dedups_and_names_resolve() {
        let reg = Registry::new(DeviceSpec::test_tiny());
        let r1 = reference(2_000, 1);
        let r2 = reference(2_000, 2);
        let h1 = reg.add("one", Arc::clone(&r1), config()).unwrap();
        let h2 = reg.add("two", Arc::clone(&r2), config()).unwrap();
        assert_ne!(h1, h2);
        assert_eq!(reg.len(), 2);
        // Same pair → same handle, name ignored.
        let again = reg.add("renamed", Arc::clone(&r1), config()).unwrap();
        assert_eq!(again, h1);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.handle_by_name("two"), Some(h2));
        assert_eq!(reg.handle_by_name("missing"), None);
        let list = reg.list();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].name, "one");
        assert_eq!(list[0].ref_len, 2_000);
    }

    #[test]
    fn configs_differing_only_in_seed_mode_never_share_a_session() {
        use gpumem_index::SeedMode;
        // L = 25, ℓs = 8 → dual bound 18; (4, 3) is the auto pair.
        let builder = || {
            GpumemConfig::builder(25)
                .seed_len(8)
                .threads_per_block(8)
                .blocks_per_tile(2)
        };
        let ref_only = builder().build().unwrap();
        let dual = builder()
            .seed_mode(SeedMode::DualSampled { k1: 4, k2: 3 })
            .build()
            .unwrap();
        let device = Device::new(DeviceSpec::test_tiny());
        let reg = Registry::new(DeviceSpec::test_tiny());
        let r = reference(4_000, 815);

        // Warm the RefOnly session fully; the dual session must be a
        // distinct, still-cold one — not the warmed RefOnly rows, whose
        // denser index would break the dual probe contract.
        let warm = reg.add("ref", Arc::clone(&r), ref_only.clone()).unwrap();
        let session = reg.session(warm).unwrap();
        session.warm(&device);
        assert_eq!(session.built_rows(), session.rows());
        let cold = reg.add("dual", Arc::clone(&r), dual).unwrap();
        assert_ne!(
            warm, cold,
            "configs differing only in seed mode shared a handle"
        );
        assert_eq!(reg.session(cold).unwrap().built_rows(), 0);
        assert_eq!(reg.len(), 2);
        // The same pair again is the same handle.
        assert_eq!(reg.add("again", r, ref_only).unwrap(), warm);
    }

    #[test]
    fn eviction_is_lru_and_respects_pins() {
        let spec = DeviceSpec::test_tiny();
        let device = Device::new(spec.clone());
        // Budget sized below three warm sessions, above two.
        let reg = Arc::new(Registry::new(spec.clone()));
        let refs: Vec<Arc<PackedSeq>> = (0..3).map(|i| reference(2_000, 10 + i)).collect();
        let handles: Vec<RefHandle> = refs
            .iter()
            .enumerate()
            .map(|(i, r)| reg.add(&format!("r{i}"), Arc::clone(r), config()).unwrap())
            .collect();
        let mut per = Vec::new();
        for &h in &handles {
            let s = reg.session(h).unwrap();
            s.warm(&device);
            per.push(s.resident_bytes());
            assert!(s.resident_bytes() > 0);
        }
        let total: u64 = per.iter().sum();

        let budgeted = Arc::new(Registry::with_budget(spec, total - 1));
        let handles: Vec<RefHandle> = refs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                budgeted
                    .add(&format!("r{i}"), Arc::clone(r), config())
                    .unwrap()
            })
            .collect();
        // Pin r0 and warm everything: r0 (pinned) must survive; the
        // eviction to fit the budget must pick the LRU cold entry (r1).
        let pin = budgeted.pin(handles[0]).unwrap();
        for &h in &handles {
            budgeted.session(h).unwrap().warm(&device);
        }
        budgeted.enforce_budget();
        assert!(budgeted.resident_bytes() < total);
        assert!(
            pin.session().resident_rows() > 0,
            "pinned session was evicted"
        );
        assert_eq!(
            budgeted.session(handles[1]).unwrap().resident_rows(),
            0,
            "LRU cold entry r1 should have been evicted"
        );
        let stats = budgeted.stats();
        assert!(stats.attached);
        assert!(stats.evictions >= 1);
        assert!(stats.peak_resident_bytes >= stats.resident_bytes);
        assert_eq!(stats.budget_bytes, total - 1);
        drop(pin);
        assert_eq!(budgeted.stats().pinned, 0);
    }

    #[test]
    fn evicted_sessions_rebuild_on_next_touch() {
        let spec = DeviceSpec::test_tiny();
        let device = Device::new(spec.clone());
        let reg = Registry::with_budget(spec, 1); // evict-everything budget
        let r = reference(2_000, 30);
        let h = reg.add("r", Arc::clone(&r), config()).unwrap();
        let s = reg.session(h).unwrap();
        s.warm(&device);
        reg.enforce_budget();
        assert_eq!(s.resident_rows(), 0, "budget of 1 byte evicts everything");
        // The handle is still valid and the session rebuilds lazily.
        let s2 = reg.session(h).unwrap();
        assert!(Arc::ptr_eq(&s, &s2));
        s2.warm(&device);
        assert!(s2.resident_rows() > 0);
        assert!(reg.stats().misses >= 2);
    }

    #[test]
    fn remove_refuses_pinned_then_succeeds() {
        let reg = Arc::new(Registry::new(DeviceSpec::test_tiny()));
        let h = reg.add("r", reference(1_000, 40), config()).unwrap();
        let pin = reg.pin(h).unwrap();
        assert!(!reg.remove(h), "pinned entries cannot be removed");
        drop(pin);
        assert!(reg.remove(h));
        assert!(reg.session(h).is_none());
        assert!(reg.is_empty());
    }
}
