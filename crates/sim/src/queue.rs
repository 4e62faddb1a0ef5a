//! The one ordered queue: the simulator's events, a live reactor's timed
//! wakes, and each reactor task's mailbox, where the packets senders queued
//! and the timers the task armed wait together by instant.
//!
//! Items leave in `(key, push order)` order. The key is a [`SimTime`] by
//! default; a mailbox keys by a wall-clock `Instant` and a timer flag.
//! Only keys `(key, sequence, slot)` are ordered, and the item waits in a
//! slab at `slot`, whose freed slots are reused: ordering moves keys, not
//! items, a warm push and pop allocate nothing, and the slab never outgrows
//! the most items ever pending at once. A key at or after the last one
//! pushed appends to a sorted run, and a key before it first moves the
//! run's later keys to a binary heap, so a stream pushed in order — a
//! mailbox's stamps, mostly — pushes and pops without a sift. A key out
//! of order pays for the keys it moves; the simulator's events, out of
//! order two pushes in five, cost about what a heap alone did. There is
//! no cancel: an actor keeps a timer or two armed and ignores a fire it
//! no longer wants. A reactor worker pops from its drive loop, so nothing
//! here panics: a key whose slot is empty is skipped.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A queued item's key: `(at, seq, slot)`, earliest first.
type Key<K> = (K, u64, u32);

/// Items due at keys, popped earliest first, ties in push order.
pub struct EventQueue<T, K: Ord + Copy = SimTime> {
    /// Keys in push order, which is key order: a push appends here after
    /// moving the keys later than its own to `heap`.
    run: VecDeque<Key<K>>,
    /// The keys moved off the run, earliest on top.
    heap: BinaryHeap<Reverse<Key<K>>>,
    /// The item of every queued key, at the key's slot; `None` = free.
    slab: Vec<Option<T>>,
    /// Free slots of `slab`, reused before it grows.
    free: Vec<u32>,
    seq: u64,
}

impl<T, K: Ord + Copy> Default for EventQueue<T, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, K: Ord + Copy> EventQueue<T, K> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Queue `item` due at `at`, after everything already queued for the
    /// same key. A key already past is due at once.
    pub fn push(&mut self, at: K, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let reused = self
            .free
            .pop()
            .and_then(|slot| Some((slot, self.slab.get_mut(slot as usize)?)));
        let slot = match reused {
            Some((slot, cell)) => {
                *cell = Some(item);
                slot
            }
            None => {
                self.slab.push(Some(item));
                (self.slab.len() - 1) as u32
            }
        };
        while let Some(&later) = self.run.back().filter(|&&(last, _, _)| last > at) {
            self.run.pop_back();
            self.heap.push(Reverse(later));
        }
        self.run.push_back((at, seq, slot));
    }

    /// The earliest key, and whether it heads the run (else the heap).
    fn head(&self) -> Option<(Key<K>, bool)> {
        match (self.run.front(), self.heap.peek()) {
            (Some(&run), Some(&Reverse(heap))) if heap < run => Some((heap, false)),
            (Some(&run), _) => Some((run, true)),
            (None, heap) => heap.map(|&Reverse(key)| (key, false)),
        }
    }

    /// When the earliest queued item is due, if any.
    pub fn peek_at(&self) -> Option<K> {
        self.head().map(|((at, _, _), _)| at)
    }

    /// Take the earliest item due at or before `now`, with its key.
    pub fn pop_due(&mut self, now: K) -> Option<(K, T)> {
        while let Some(((at, _, slot), in_run)) = self.head() {
            if at > now {
                return None;
            }
            if in_run {
                self.run.pop_front();
            } else {
                self.heap.pop();
            }
            if let Some(item) = self.slab.get_mut(slot as usize).and_then(Option::take) {
                self.free.push(slot);
                return Some((at, item));
            }
        }
        None
    }

    /// Items queued.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::rng::DetRng;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn the_heap_holds_keys_of_24_bytes() {
        assert!(std::mem::size_of::<Key<SimTime>>() <= 24);
    }

    /// The queue beside a `BTreeMap<(deadline, arm order), item>` that is
    /// obviously right. After every step both must agree on `len`, on what
    /// fired and in what order, and on `peek_at`.
    #[test]
    fn seeded_schedules_agree_with_an_ordered_map() {
        for seed in 0..8 {
            let mut rng = DetRng::new(0xD1FF + seed);
            let mut queue = EventQueue::new();
            let mut model = BTreeMap::new();
            let (mut now, mut armed) = (0u64, 0u64);
            for _ in 0..6_000 {
                if rng.index(10) < 5 {
                    let at = match rng.index(4) {
                        // Overdue, the present instant, soon, and far.
                        0 => now.saturating_sub(rng.range_u64(1, 5_000)),
                        1 => now,
                        2 => now + rng.range_u64(1, 1_000),
                        _ => now + rng.range_u64(1_000, 10_000_000),
                    };
                    queue.push(us(at), armed);
                    model.insert((us(at), armed), armed);
                    armed += 1;
                } else {
                    now += match rng.index(4) {
                        0 => 0,
                        1 => rng.range_u64(1, 100),
                        2 => rng.range_u64(100, 10_000),
                        _ => rng.range_u64(10_000, 5_000_000),
                    };
                    let fired: Vec<_> = std::iter::from_fn(|| queue.pop_due(us(now))).collect();
                    let later = model.split_off(&(us(now + 1), 0));
                    let due = std::mem::replace(&mut model, later);
                    let expect: Vec<_> = due.into_iter().map(|((at, _), i)| (at, i)).collect();
                    assert_eq!(fired, expect, "seed {seed}, fires at {now}");
                }
                assert_eq!(queue.len(), model.len(), "seed {seed}, len at {now}");
                assert_eq!(
                    queue.peek_at(),
                    model.keys().next().map(|&(at, _)| at),
                    "seed {seed}, peek_at at {now}"
                );
            }
        }
    }

    #[test]
    fn the_slab_never_outgrows_the_peak_of_pending_items() {
        // 300 timers re-armed as they fire; a burst of 2 000 one-shot items
        // raises the peak once, and the slots it freed carry the rest.
        const BURST: u64 = 1 << 32;
        let mut rng = DetRng::new(5);
        let mut queue = EventQueue::new();
        for i in 0..300 {
            queue.push(us(rng.range_u64(1, 10_000)), i);
        }
        let mut peak = queue.len();
        for step in 0..20_000u64 {
            let now = queue.peek_at().expect("the run never drains");
            if step == 5_000 {
                for i in 0..2_000 {
                    queue.push(now, BURST + i);
                }
            }
            peak = peak.max(queue.len());
            let (_, item) = queue.pop_due(now).expect("the head is due");
            if item < BURST {
                queue.push(
                    now + crate::SimDuration::from_micros(rng.range_u64(1, 10_000)),
                    item,
                );
            }
            assert_eq!(queue.slab.len() - queue.free.len(), queue.len());
        }
        assert_eq!(queue.len(), 300, "the burst drained");
        assert!(peak > 2_000, "the burst must raise the peak: {peak}");
        assert!(
            queue.slab.len() <= peak,
            "slab {} > peak pending {peak}",
            queue.slab.len()
        );
    }
}
