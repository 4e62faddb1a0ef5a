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
//! only records' heads and pending options in its pages, both inline, and
//! each record's history outside them (`store.rs`): a snapshot holds no
//! history, and copying a page copies 64 heads and no chain.

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

    /// The page for writing: a frozen page is copied first, unless every
    /// snapshot that held it is gone, in which case it is taken back as is.
    fn items_mut(&mut self) -> &mut Vec<T> {
        if let Some(shared) = self.shared.take() {
            self.owned = Arc::try_unwrap(shared).unwrap_or_else(|held| full_page_copy(&held));
        }
        &mut self.owned
    }

    /// Freeze the page and return the shared handle a snapshot keeps. Moves
    /// the elements behind the `Arc`; copies nothing.
    fn freeze(&mut self) -> Arc<Vec<T>> {
        let owned = &mut self.owned;
        self.shared
            .get_or_insert_with(|| Arc::new(std::mem::take(owned)))
            .clone()
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

/// A growable vector in pages a snapshot can share. `clone` shares the
/// frozen pages and copies the rest, so cloning a snapshot is O(pages);
/// [`PagedVec::deep_clone`] shares nothing.
#[derive(Debug, Clone)]
pub(crate) struct PagedVec<T> {
    /// Every page but the last is full.
    pages: Vec<Page<T>>,
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        PagedVec { pages: Vec::new() }
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
        page.items_mut().get_mut(index % PAGE_LEN)
    }

    pub(crate) fn push(&mut self, value: T) {
        match self.pages.last_mut() {
            Some(last) if last.items().len() < PAGE_LEN => last.items_mut().push(value),
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
    /// pages written since the last snapshot (one `Arc` each, no element is
    /// copied) and copies the page pointers.
    pub(crate) fn snapshot(&mut self) -> Self {
        PagedVec {
            pages: self
                .pages
                .iter_mut()
                .map(|p| Page::frozen(p.freeze()))
                .collect(),
        }
    }

    /// A copy that shares no page with `self`: O(len) element clones.
    pub(crate) fn deep_clone(&self) -> Self {
        PagedVec {
            pages: self.pages.iter().map(|p| Page::owning(p.items())).collect(),
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
