//! A vector kept in fixed-size pages that a snapshot can share, so the
//! snapshot costs O(pages) pointer copies and the two diverge one page at a
//! time.
//!
//! This is what makes a checkpoint cost what changed instead of what is
//! stored. [`PagedVec::snapshot`] freezes every page behind an [`Arc`] that
//! the snapshot and the live vector both hold; the first write to a frozen
//! page copies that page alone and owns the copy from then on, so writes to
//! a page already written since the snapshot pay one null test and no
//! atomic. A page that is never written again — a page of order keys, each
//! written once by its purchase — is never copied at all; it is shared by
//! every snapshot taken after it filled up.
//!
//! What a copy costs is what an element's `clone` costs. The store keeps
//! only records' heads and pending options in its pages, both inline, so
//! copying a page copies 64 heads and no chain.
//!
//! After warm-up a page costs no allocation either. A snapshot the owner no
//! longer needs comes back through [`PagedVec::recycle`]: each of its pages
//! that nothing else holds any more is kept as a spare `Arc` and a spare
//! buffer, emptied. Freezing a page fills a spare `Arc` instead of boxing
//! a new one, and a copy goes into a spare buffer. A page still held by
//! anything else — the live vector, a newer snapshot, a clone of the old
//! one — is never a spare, so no write can show through a snapshot.

use std::sync::Arc;

/// Elements per page. Small enough that a scattered write copies little
/// (one page per written key at worst), large enough that a snapshot of
/// 300 000 records is under five thousand pointer copies.
pub const PAGE_LEN: usize = 64;

/// One page: at most [`PAGE_LEN`] elements, either frozen (`shared`, and
/// `owned` empty) or written since the last snapshot (`owned`, allocated at
/// full capacity so filling it never reallocates).
#[derive(Debug)]
struct Page<T> {
    shared: Option<Arc<Vec<T>>>,
    owned: Vec<T>,
}

fn full_page_copy<T: Clone>(items: &[T]) -> Vec<T> {
    let mut copy = Vec::with_capacity(PAGE_LEN);
    copy.extend_from_slice(items);
    copy
}

impl<T: Clone> Page<T> {
    /// An unshared page holding a copy of `items` (none, for a new page).
    fn owning(items: &[T]) -> Self {
        Page {
            shared: None,
            owned: full_page_copy(items),
        }
    }

    fn frozen(items: Arc<Vec<T>>) -> Self {
        Page {
            shared: Some(items),
            owned: Vec::new(),
        }
    }

    fn items(&self) -> &[T] {
        match &self.shared {
            Some(shared) => shared,
            None => &self.owned,
        }
    }

    /// The page for writing. A frozen page is copied into a spare buffer
    /// first, unless every snapshot that held it is gone, in which case its
    /// elements are taken back as they are and its `Arc` becomes a spare.
    fn items_mut(&mut self, spares: &mut Spares<T>) -> &mut Vec<T> {
        if let Some(mut shared) = self.shared.take() {
            self.owned = match Arc::get_mut(&mut shared) {
                Some(items) => {
                    let items = std::mem::take(items);
                    spares.arcs.push(shared);
                    items
                }
                None => {
                    let mut copy = spares.buffers.pop().unwrap_or_default();
                    copy.reserve_exact(PAGE_LEN);
                    copy.extend_from_slice(&shared);
                    copy
                }
            };
        }
        &mut self.owned
    }

    /// Freeze the page and return the shared handle a snapshot keeps. Moves
    /// the elements behind a spare `Arc`, or a new one if none is spare;
    /// copies nothing.
    fn freeze(&mut self, spares: &mut Spares<T>) -> Arc<Vec<T>> {
        if let Some(shared) = &self.shared {
            return shared.clone();
        }
        // A spare is held by nothing else, so `make_mut` hands out its
        // vector without a copy, as it does a new `Arc`'s.
        let mut shared = spares.arcs.pop().unwrap_or_default();
        *Arc::make_mut(&mut shared) = std::mem::take(&mut self.owned);
        self.shared.insert(shared).clone()
    }
}

/// Shares the page if it is frozen, copies it if it is not.
impl<T: Clone> Clone for Page<T> {
    fn clone(&self) -> Self {
        match &self.shared {
            Some(shared) => Page::frozen(shared.clone()),
            None => Page::owning(&self.owned),
        }
    }
}

/// What is left of the snapshots a vector has taken back: `Arc`s that
/// nothing else holds, each around an empty vector, and emptied page
/// buffers.
#[derive(Debug)]
struct Spares<T> {
    arcs: Vec<Arc<Vec<T>>>,
    buffers: Vec<Vec<T>>,
}

impl<T> Default for Spares<T> {
    fn default() -> Self {
        Spares {
            arcs: Vec::new(),
            buffers: Vec::new(),
        }
    }
}

/// A growable vector in pages a snapshot can share. `clone` shares the
/// frozen pages and copies the rest, so cloning a snapshot is O(pages);
/// [`PagedVec::deep_clone`] shares nothing. Neither copies the spares.
#[derive(Debug)]
pub(crate) struct PagedVec<T> {
    /// Every page but the last is full.
    pages: Vec<Page<T>>,
    spares: Spares<T>,
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        PagedVec {
            pages: Vec::new(),
            spares: Spares::default(),
        }
    }
}

impl<T: Clone> Clone for PagedVec<T> {
    fn clone(&self) -> Self {
        PagedVec {
            pages: self.pages.clone(),
            spares: Spares::default(),
        }
    }
}

impl<T: Clone> PagedVec<T> {
    pub(crate) fn len(&self) -> usize {
        match self.pages.split_last() {
            Some((last, full)) => full.len() * PAGE_LEN + last.items().len(),
            None => 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        self.pages
            .get(index / PAGE_LEN)?
            .items()
            .get(index % PAGE_LEN)
    }

    /// Mutable access to one element; copies its page first if a snapshot
    /// still shares it.
    pub(crate) fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        let page = self.pages.get_mut(index / PAGE_LEN)?;
        page.items_mut(&mut self.spares).get_mut(index % PAGE_LEN)
    }

    pub(crate) fn push(&mut self, value: T) {
        match self.pages.last_mut() {
            Some(last) if last.items().len() < PAGE_LEN => {
                last.items_mut(&mut self.spares).push(value)
            }
            _ => {
                let mut page = Page::owning(&[]);
                page.owned.push(value);
                self.pages.push(page);
            }
        }
    }

    /// All elements, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flat_map(|p| p.items().iter())
    }

    /// A point-in-time copy sharing every page with `self`: freezes the
    /// pages written since the last snapshot (one `Arc` each, spare or new;
    /// no element is copied) and copies the page pointers.
    pub(crate) fn snapshot(&mut self) -> Self {
        let spares = &mut self.spares;
        PagedVec {
            pages: self
                .pages
                .iter_mut()
                .map(|p| Page::frozen(p.freeze(spares)))
                .collect(),
            spares: Spares::default(),
        }
    }

    /// Take back a snapshot of `self` that is no longer needed: every page
    /// only it held becomes a spare `Arc` and a spare buffer, its elements
    /// dropped. Pages something else still holds are let go.
    pub(crate) fn recycle(&mut self, snapshot: Self) {
        for page in snapshot.pages {
            let Some(mut shared) = page.shared else {
                continue;
            };
            if let Some(items) = Arc::get_mut(&mut shared) {
                let mut buffer = std::mem::take(items);
                buffer.clear();
                self.spares.buffers.push(buffer);
                self.spares.arcs.push(shared);
            }
        }
    }

    /// A copy that shares no page with `self`: O(len) element clones.
    pub(crate) fn deep_clone(&self) -> Self {
        PagedVec {
            pages: self.pages.iter().map(|p| Page::owning(p.items())).collect(),
            spares: Spares::default(),
        }
    }

    /// How many pages `self` and `other` hold in common (same allocation).
    #[cfg(test)]
    pub(crate) fn shared_pages(&self, other: &Self) -> usize {
        self.pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| match (&a.shared, &b.shared) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            })
            .count()
    }
}

impl<T: Clone + PartialEq> PartialEq for PagedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: Clone + Eq> Eq for PagedVec<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> PagedVec<usize> {
        let mut v = PagedVec::default();
        for i in 0..n {
            v.push(i);
        }
        v
    }

    #[test]
    fn indexes_across_page_boundaries() {
        let n = PAGE_LEN * 2 + 3;
        let mut v = filled(n);
        assert_eq!(v.len(), n);
        assert_eq!(v.pages.len(), 3);
        for i in [0, PAGE_LEN - 1, PAGE_LEN, n - 1] {
            assert_eq!(v.get(i), Some(&i));
        }
        assert_eq!(v.get(n), None);
        assert!(v.get_mut(n).is_none());
        assert!(v.iter().copied().eq(0..n));
        assert!(PagedVec::<usize>::default().is_empty());
    }

    #[test]
    fn a_write_copies_one_page_and_never_shows_through_the_copy() {
        let n = PAGE_LEN * 4;
        let mut live = filled(n);
        let snap = live.snapshot();
        assert_eq!(live.shared_pages(&snap), 4);
        if let Some(x) = live.get_mut(PAGE_LEN + 1) {
            *x = 999;
        }
        assert_eq!(live.shared_pages(&snap), 3, "one page copied");
        assert_eq!(snap.get(PAGE_LEN + 1), Some(&(PAGE_LEN + 1)));
        assert_eq!(live.get(PAGE_LEN + 1), Some(&999));
        // A second write to the same page finds it unshared.
        if let Some(x) = live.get_mut(PAGE_LEN + 2) {
            *x = 998;
        }
        assert_eq!(live.shared_pages(&snap), 3);
        assert_ne!(live, snap);
        // Cloning the snapshot shares its pages; cloning the live vector
        // shares the frozen ones and copies the written one.
        assert_eq!(snap.clone().shared_pages(&snap), 4);
        let copy = live.clone();
        assert_eq!(copy.shared_pages(&live), 3);
        assert_eq!(copy, live);
    }

    #[test]
    fn a_page_whose_snapshots_are_gone_is_taken_back_without_a_copy() {
        let mut live = filled(PAGE_LEN);
        let before: *const usize = &live.pages[0].owned[0];
        drop(live.snapshot());
        if let Some(x) = live.get_mut(3) {
            *x = 999;
        }
        assert_eq!(
            live.get(0).map(|x| x as *const usize),
            Some(before),
            "same allocation"
        );
        assert_eq!(live.get(3), Some(&999));
    }

    #[test]
    fn push_after_a_copy_leaves_the_copy_at_its_length() {
        let mut live = filled(PAGE_LEN + 5);
        let snap = live.snapshot();
        live.push(7);
        assert_eq!(snap.len(), PAGE_LEN + 5);
        assert_eq!(snap.iter().count(), PAGE_LEN + 5);
        assert_eq!(
            snap.pages[1].items().len(),
            5,
            "the shared last page was copied"
        );
        assert_eq!(live.pages[1].items().len(), 6);
        assert_eq!(live.shared_pages(&snap), 1);
    }

    fn write(v: &mut PagedVec<usize>, index: usize, value: usize) {
        if let Some(x) = v.get_mut(index) {
            *x = value;
        }
    }

    #[test]
    fn a_recycled_page_never_shows_a_later_write_through_a_live_snapshot() {
        let mut live = filled(PAGE_LEN * 3);
        let dead = live.snapshot();
        write(&mut live, 1, 1_000); // un-shares page 0 from `dead`
        let dead_page = dead.pages[0].shared.as_ref().map(Arc::as_ptr);
        live.recycle(dead);
        assert_eq!(live.spares.arcs.len(), 1, "page 0 alone was dead's only");
        assert_eq!(live.spares.buffers.len(), 1);
        // The next snapshot freezes page 0 into the recycled `Arc`.
        let kept = live.snapshot();
        let then = kept.deep_clone();
        assert_eq!(kept.pages[0].shared.as_ref().map(Arc::as_ptr), dead_page);
        assert_eq!(live.shared_pages(&kept), 3);
        // A write copies the page into the recycled buffer; the snapshot
        // still holds what it held.
        write(&mut live, 2, 2_000);
        assert!(live.spares.buffers.is_empty(), "the copy took the buffer");
        assert_eq!(kept, then);
        assert_eq!(kept.get(1), Some(&1_000));
        assert_eq!(kept.get(2), Some(&2));
        assert_eq!(live.get(2), Some(&2_000));
        // Round again: `kept` dies, its page 0 comes back, and a snapshot
        // and a write later `newer` still shows only what it was taken with.
        live.recycle(kept);
        let newer = live.snapshot();
        let newer_then = newer.deep_clone();
        write(&mut live, 3, 3_000);
        write(&mut live, PAGE_LEN, 4_000);
        assert_eq!(newer, newer_then);
        assert_eq!(newer.get(2), Some(&2_000));
        assert_eq!(newer.get(3), Some(&3));
    }

    #[test]
    fn a_page_still_held_by_a_clone_is_never_recycled() {
        let mut live = filled(PAGE_LEN * 2);
        let snap = live.snapshot();
        let held = snap.clone(); // a clone of the log keeps the snapshot
        write(&mut live, 0, 1_000);
        live.recycle(snap);
        assert!(live.spares.arcs.is_empty() && live.spares.buffers.is_empty());
        assert_eq!(held.get(0), Some(&0));
        // Nor is a page the live vector still shares.
        let snap = live.snapshot();
        live.recycle(snap);
        assert!(live.spares.arcs.is_empty());
        write(&mut live, 0, 2_000);
        write(&mut live, PAGE_LEN, 2_001);
        assert_eq!(held, filled(PAGE_LEN * 2));
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let mut live = filled(PAGE_LEN * 3);
        let snap = live.snapshot();
        let deep = live.deep_clone();
        assert_eq!(live.shared_pages(&snap), 3);
        assert_eq!(live.shared_pages(&deep), 0);
        assert_eq!(live, deep);
    }
}
