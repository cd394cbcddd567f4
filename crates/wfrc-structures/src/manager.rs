//! The §3.2 user model as a trait, so every reference-counted structure in
//! this crate is written once and runs over both schemes.
//!
//! The paper's point of compatibility (§3.2, Figure 6): its wait-free
//! operations have exactly the signature previous lock-free
//! reference-counting schemes expose — `AllocNode`, `DeRefLink`,
//! `ReleaseRef`, `FixRef`, a link CAS, and the direct-write rule. [`RcMm`]
//! captures that signature, and the one [`wfrc_core::Handle`] implements it
//! for every [`Scheme`] ([`wfrc_core::ThreadHandle`] and
//! [`wfrc_baselines::LfrcHandle`] are that type at two schemes) — which is
//! how the paper ran its §5 experiment, swapping schemes under one queue.

use wfrc_core::counters::CounterSnapshot;
use wfrc_core::oom::OutOfMemory;
use wfrc_core::{AtomicWeak, Domain, Handle, LeakReport, Link, Node, RcObject, Scheme};

/// A per-thread handle to a reference-counted memory-management scheme.
///
/// # Safety
///
/// Implementations must provide the §3.2 guarantees (the ones
/// [`wfrc_core::scheme::Pool`] owes):
/// * [`RcMm::deref_link`] returns a node the link pointed to during the
///   call, with one reference transferred to the caller;
/// * a node with a non-zero reference count is never reclaimed or
///   re-initialized;
/// * [`RcMm::cas_link`] performs whatever helping the scheme's dereference
///   relies on (the wait-free scheme: `HelpDeRef` after a successful CAS).
///
/// Callers must uphold the count discipline documented on each method; the
/// structures in this crate are the reference examples.
pub unsafe trait RcMm<T: RcObject> {
    /// Allocates a node with one caller-owned reference and **stale**
    /// payload; initialize via [`RcMm::payload_mut`] before publishing.
    fn alloc_node(&self) -> Result<*mut Node<T>, OutOfMemory>;

    /// `DeRefLink`: returns the link's target (deletion mark stripped) with
    /// one reference for the caller, or null.
    ///
    /// # Safety
    /// `link` must only ever hold nodes of this handle's domain.
    unsafe fn deref_link(&self, link: &Link<T>) -> *mut Node<T>;

    /// `ReleaseRef`: drops one caller-owned reference.
    ///
    /// # Safety
    /// Caller owns an unreleased reference on non-null `node`.
    unsafe fn release_node(&self, node: *mut Node<T>);

    /// `FixRef(node, 2·refs)`: acquires `refs` extra references.
    ///
    /// # Safety
    /// Caller must already hold at least one reference (or otherwise know
    /// the node cannot be reclaimed, e.g. it is reachable from a link of a
    /// node the caller holds).
    unsafe fn add_refs(&self, node: *mut Node<T>, refs: usize);

    /// Link CAS on **raw words** (deletion marks included), with the
    /// scheme's helping obligations on success. Reference counts are the
    /// caller's: transfer one owned count with the new target, release the
    /// old target's link count after a successful swap (unless it merely
    /// moved).
    ///
    /// # Safety
    /// `old`/`new` must be (possibly marked) nodes of this domain or null;
    /// the caller owns the count transferred on `new`'s node.
    unsafe fn cas_link(&self, link: &Link<T>, old: *mut Node<T>, new: *mut Node<T>) -> bool;

    /// Direct write of an **unpublished** link (§3.2: previous value ⊥, no
    /// concurrent access possible). Transfers one caller-owned count.
    ///
    /// # Safety
    /// See above; the link must be unreachable by other threads.
    unsafe fn store_link(&self, link: &Link<T>, node: *mut Node<T>);

    /// Shared payload access.
    ///
    /// # Safety
    /// Caller holds a reference on `node` for the borrow's duration.
    unsafe fn payload(&self, node: *mut Node<T>) -> &T;

    /// Exclusive payload access (fresh, unpublished node).
    ///
    /// # Safety
    /// Caller owns `node` exclusively.
    #[allow(clippy::mut_from_ref)]
    unsafe fn payload_mut(&self, node: *mut Node<T>) -> &mut T;

    /// Snapshot of the handle's operation counters.
    fn counter_snapshot(&self) -> CounterSnapshot;

    /// Whether [`RcMm::snapshot_enter`] actually protects
    /// [`RcMm::snapshot_load`] targets from reclamation
    /// ([`Scheme::SNAPSHOT_PROTECTED`]). Structures use this to take the
    /// plain-load fast path only where it is sound — see
    /// [`crate::Stack::peek`].
    const SNAPSHOT_PROTECTED: bool;

    /// Enters a snapshot-pin session (DESIGN.md §4f): under the wait-free
    /// scheme this publishes the pin bit that turns [`RcMm::snapshot_load`]
    /// into a protected plain load; a scheme without deferral publishes
    /// nothing. Re-entrant; pair every call with [`RcMm::snapshot_exit`].
    fn snapshot_enter(&self);

    /// Exits the pin session entered by [`RcMm::snapshot_enter`].
    ///
    /// # Safety
    /// Must pair a preceding `snapshot_enter` on this handle; no pointer
    /// from [`RcMm::snapshot_load`] obtained during the session may be
    /// dereferenced afterwards (unless independently protected).
    unsafe fn snapshot_exit(&self);

    /// Plain-load dereference (deletion mark stripped, **no** reference
    /// transferred): the read fast path measured by E4 `--snapshot`.
    ///
    /// # Safety
    /// A pin session must be live on this handle (or, the only option where
    /// `SNAPSHOT_PROTECTED` is false, the caller must otherwise guarantee
    /// the target outlives every dereference of the returned pointer);
    /// `link` must only ever hold nodes of this handle's domain.
    unsafe fn snapshot_load(&self, link: &Link<T>) -> *mut Node<T>;

    // --- Weak layer (PR 10, DESIGN.md §4g) ---------------------------

    /// Adds one weak reference to `node` (a downgrade); pair with
    /// [`RcMm::release_weak`].
    ///
    /// # Safety
    /// The caller must hold a strong reference on non-null `node` for the
    /// duration of the call.
    unsafe fn downgrade_node(&self, node: *mut Node<T>);

    /// Attempts to mint a strong reference from a weak one: `true` means
    /// the caller now owns one strong reference on `node` (release via
    /// [`RcMm::release_node`]); the weak reference is untouched either way.
    ///
    /// # Safety
    /// The caller must hold a weak reference on `node`.
    unsafe fn upgrade_node(&self, node: *mut Node<T>) -> bool;

    /// Drops one caller-owned weak reference; the last one off a dead
    /// header frees the node.
    ///
    /// # Safety
    /// Caller owns an unreleased weak reference on non-null `node`.
    unsafe fn release_weak(&self, node: *mut Node<T>);

    /// Stores `node` into the weak link `w`: mints one weak count on
    /// `node`, swaps the link, and drops the weak count the link held on
    /// its previous target. The caller's strong reference on `node` is
    /// untouched.
    ///
    /// # Safety
    /// `node` must be null or a node of this domain the caller holds a
    /// strong reference on; `w` must only ever hold nodes of this domain.
    unsafe fn store_weak_link(&self, w: &AtomicWeak<T>, node: *mut Node<T>);

    /// Loads `w` and upgrades its target in one step: a non-null return
    /// carries one caller-owned **strong** reference (null means the link
    /// was empty or its target died).
    ///
    /// # Safety
    /// `w` must only ever hold nodes of this handle's domain.
    unsafe fn load_weak_link(&self, w: &AtomicWeak<T>) -> *mut Node<T>;
}

// SAFETY: the guarantees are the scheme's `Pool` impl's (an `unsafe trait`
// that owes exactly them): for `Wf` the paper's §4 proves them (Lemmas
// 2–10); `Lf` is Valois/Michael–Scott lock-free reference counting, whose
// user model the paper's scheme is compatible with (§3.2).
unsafe impl<T: RcObject, S: Scheme> RcMm<T> for Handle<'_, T, S> {
    fn alloc_node(&self) -> Result<*mut Node<T>, OutOfMemory> {
        self.alloc_raw()
    }
    unsafe fn deref_link(&self, link: &Link<T>) -> *mut Node<T> {
        // SAFETY: forwarded contract.
        unsafe { self.deref_raw(link) }
    }
    unsafe fn release_node(&self, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        unsafe { self.release_raw(node) }
    }
    unsafe fn add_refs(&self, node: *mut Node<T>, refs: usize) {
        // SAFETY: forwarded contract.
        unsafe { self.add_ref_raw(node, refs) }
    }
    unsafe fn cas_link(&self, link: &Link<T>, old: *mut Node<T>, new: *mut Node<T>) -> bool {
        // SAFETY: forwarded contract.
        unsafe { self.cas_link_raw(link, old, new) }
    }
    unsafe fn store_link(&self, link: &Link<T>, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        unsafe { self.store_link_raw(link, node) }
    }
    unsafe fn payload(&self, node: *mut Node<T>) -> &T {
        // SAFETY: forwarded contract.
        unsafe { self.payload_raw(node) }
    }
    unsafe fn payload_mut(&self, node: *mut Node<T>) -> &mut T {
        // SAFETY: forwarded contract.
        unsafe { self.payload_mut_raw(node) }
    }
    fn counter_snapshot(&self) -> CounterSnapshot {
        self.counters().snapshot()
    }
    const SNAPSHOT_PROTECTED: bool = S::SNAPSHOT_PROTECTED;
    fn snapshot_enter(&self) {
        self.pin_raw();
    }
    unsafe fn snapshot_exit(&self) {
        // SAFETY: forwarded contract.
        unsafe { self.unpin_raw() }
    }
    unsafe fn snapshot_load(&self, link: &Link<T>) -> *mut Node<T> {
        // SAFETY: forwarded contract (pin session live; where the scheme's
        // pin protects nothing, the caller protects the target itself).
        unsafe { self.snapshot_raw(link) }
    }
    unsafe fn downgrade_node(&self, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        unsafe { self.downgrade_raw(node) }
    }
    unsafe fn upgrade_node(&self, node: *mut Node<T>) -> bool {
        // SAFETY: forwarded contract.
        unsafe { self.upgrade_raw(node) }
    }
    unsafe fn release_weak(&self, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        unsafe { self.release_weak_raw(node) }
    }
    unsafe fn store_weak_link(&self, w: &AtomicWeak<T>, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        unsafe { self.store_weak_raw(w, node) }
    }
    unsafe fn load_weak_link(&self, w: &AtomicWeak<T>) -> *mut Node<T> {
        // SAFETY: forwarded contract.
        unsafe { self.load_weak_raw(w) }
    }
}

/// The byte-class allocation surface, as a trait so [`crate::SessionCache`]
/// and the server benchmark can also run over a tracing wrapper. Tokens are
/// [`wfrc_core::RawBytes`].
pub trait ByteMm {
    /// Allocates from the smallest fitting class and copies `bytes` in.
    fn alloc_value(&self, bytes: &[u8]) -> Result<wfrc_core::RawBytes, OutOfMemory>;

    /// The bytes behind `token`.
    ///
    /// # Safety
    /// `token` must be a live (unfreed) allocation of this handle's
    /// domain, with no concurrent free or write for the borrow's duration.
    unsafe fn value_bytes(&self, token: &wfrc_core::RawBytes) -> &[u8];

    /// Returns `token`'s block to its class.
    ///
    /// # Safety
    /// `token` must be a live allocation of this handle's domain with no
    /// remaining readers; it must not be freed twice.
    unsafe fn free_value(&self, token: wfrc_core::RawBytes);
}

impl<T: RcObject, S: Scheme> ByteMm for Handle<'_, T, S> {
    fn alloc_value(&self, bytes: &[u8]) -> Result<wfrc_core::RawBytes, OutOfMemory> {
        self.alloc_bytes(bytes)
    }
    unsafe fn value_bytes(&self, token: &wfrc_core::RawBytes) -> &[u8] {
        // SAFETY: forwarded contract.
        unsafe { self.bytes(token) }
    }
    unsafe fn free_value(&self, token: wfrc_core::RawBytes) {
        // SAFETY: forwarded contract.
        unsafe { self.free_bytes(token) }
    }
}

/// Domain-level abstraction: one generic driver constructs either scheme.
pub trait RcMmDomain<T: RcObject>: Sync {
    /// The per-thread handle type.
    type Handle<'d>: RcMm<T>
    where
        Self: 'd;

    /// Registers the calling context.
    fn register_mm(&self) -> Option<Self::Handle<'_>>;

    /// Quiescent node audit.
    fn leak_check_mm(&self) -> LeakReport;

    /// Short scheme name for reports ("wfrc" / "lfrc").
    fn scheme_name(&self) -> &'static str;
}

impl<T: RcObject, S: Scheme> RcMmDomain<T> for Domain<T, S> {
    type Handle<'d>
        = Handle<'d, T, S>
    where
        Self: 'd;

    fn register_mm(&self) -> Option<Self::Handle<'_>> {
        self.register().ok()
    }
    fn leak_check_mm(&self) -> LeakReport {
        self.leak_check()
    }
    fn scheme_name(&self) -> &'static str {
        S::NAME
    }
}

/// Forwards to the wrapped [`Domain`]'s impl.
impl<T: RcObject> RcMmDomain<T> for wfrc_baselines::LfrcDomain<T> {
    type Handle<'d>
        = wfrc_baselines::LfrcHandle<'d, T>
    where
        Self: 'd;

    fn register_mm(&self) -> Option<Self::Handle<'_>> {
        (**self).register_mm()
    }
    fn leak_check_mm(&self) -> LeakReport {
        (**self).leak_check_mm()
    }
    fn scheme_name(&self) -> &'static str {
        (**self).scheme_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfrc_core::{ClassConfig, DomainConfig, WfrcDomain};

    /// One scripted pass over the §3.2 surface plus the tiers that ride on
    /// it. Returns the audit taken mid-script — one node in every category
    /// an audit knows, one deliberately leaked — and leaves the domain clean.
    fn exercise<D>(domain: &D) -> LeakReport
    where
        D: RcMmDomain<u64>,
        for<'d> D::Handle<'d>: ByteMm,
    {
        let h = domain.register_mm().expect("register");
        let link = Link::null();
        let published = h.alloc_node().unwrap();
        let weakly_held = h.alloc_node().unwrap();
        let leaked = h.alloc_node().unwrap();
        let parked = h.alloc_node().unwrap();
        let kept_block = h.alloc_value(b"kept").unwrap();
        let freed_block = h.alloc_value(b"freed").unwrap();
        // SAFETY: standard discipline — transfer the alloc count into the
        // link, re-acquire via deref; every other count is released once.
        let mid = unsafe {
            h.store_link(&link, published);
            let p = h.deref_link(&link);
            assert_eq!(p, published);
            h.release_node(p);
            // Release-to-zero under a standing weak: DEAD-but-weak.
            h.downgrade_node(weakly_held);
            h.release_node(weakly_held);
            assert!(!h.upgrade_node(weakly_held));
            // A plain free and a block free park in the magazines.
            h.release_node(parked);
            h.free_value(freed_block);
            let mid = domain.leak_check_mm();
            // Unwind: the weak finalizes its header, the rest is released.
            h.release_weak(weakly_held);
            h.release_node(leaked);
            assert_eq!(h.value_bytes(&kept_block), b"kept");
            h.free_value(kept_block);
            assert!(h.cas_link(&link, published, core::ptr::null_mut()));
            h.release_node(published);
            mid
        };
        drop(h);
        assert!(domain.leak_check_mm().is_clean());
        mid
    }

    /// Folds the wait-free scheme's own parking structures into `free_nodes`:
    /// a gift or a deferred node is one LFRC would keep on its one list.
    fn without_wfrc_only_fields(mut r: LeakReport) -> LeakReport {
        r.free_nodes += r.parked_gifts + r.deferred_nodes;
        (r.parked_gifts, r.deferred_nodes) = (0, 0);
        for c in &mut r.classes {
            c.free_nodes += c.parked_gifts;
            c.parked_gifts = 0;
        }
        r
    }

    #[test]
    fn both_schemes_satisfy_the_user_model() {
        let class = ClassConfig::new(64, 8).with_magazine(2);
        let wf = WfrcDomain::<u64>::new(
            DomainConfig::new(2, 16)
                .with_magazine(2)
                .with_class(class.clone()),
        );
        let wf_mid = exercise(&wf);
        assert_eq!(RcMmDomain::<u64>::scheme_name(&wf), "wfrc");
        let mut lf = wfrc_baselines::LfrcDomain::<u64>::new(2, 16);
        lf.set_magazine(2);
        lf.set_classes(vec![class]);
        let lf_mid = exercise(&lf);
        assert_eq!(RcMmDomain::<u64>::scheme_name(&lf), "lfrc");

        // Audit parity: the same script yields the same report — every
        // category populated, the leak reported as live.
        assert_eq!((lf_mid.parked_gifts, lf_mid.deferred_nodes), (0, 0));
        assert_eq!(without_wfrc_only_fields(wf_mid), lf_mid);
        assert_eq!(lf_mid.live_nodes, 2, "{lf_mid}");
        assert_eq!((lf_mid.weak_nodes, lf_mid.weak_count), (1, 1), "{lf_mid}");
        assert_eq!(lf_mid.magazine_nodes, 1, "{lf_mid}");
        assert_eq!(lf_mid.classes[0].live_nodes, 1, "{lf_mid}");
        assert_eq!(lf_mid.classes[0].magazine_nodes, 1, "{lf_mid}");
        assert!(!lf_mid.is_clean());
        let (wf_end, lf_end) = (wf.leak_check(), lf.leak_check());
        assert_eq!(without_wfrc_only_fields(wf_end), lf_end);
    }
}
