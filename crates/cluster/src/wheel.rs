//! A hierarchical hashed timer wheel for the reactor runtime.
//!
//! Every reactor worker owns one wheel. Timers armed by the actors it
//! drives are filed by deadline tick; one `advance` call per loop iteration
//! fires everything due, in exact deadline order, and an idle worker parks
//! until `next_deadline`. No operation depends on how many timers are armed
//! or on how long the node has been up — a coordinator leaves one 10 s
//! `TxnTimeout` behind per transaction, so at 25 k txn/s a worker carries a
//! quarter of a million armed timers and must still park in O(1).
//!
//! Two levels of `slots` slots each:
//!
//! * **Level 0** has one slot per tick and holds the deadlines of the
//!   cursor's own rotation (256 × 1024 µs ≈ 262 ms by default).
//! * **Level 1** has one slot per *level-0 rotation* and holds the next
//!   `slots` rotations (≈ 67 s: the 10 s transaction timeout, the 5 s
//!   client backstop and replica sweep). When the cursor enters a rotation
//!   its level-1 slot *cascades*: entries are relinked into level 0 (or
//!   fired, after a long sleep).
//! * Deadlines beyond level 1 sit in a `BinaryHeap` and fire straight from
//!   it; nothing on the protocol path reaches it.
//!
//! A slot is an intrusive doubly-linked list threaded through the entry
//! slab, and each level keeps an occupancy bitmap, so insert and cancel are
//! O(1) (a cancelled entry is unlinked and its slab index recycled on the
//! spot), and `advance` visits occupied slots only: O(fired + cascaded),
//! each entry cascading at most once. The earliest deadline is cached:
//! `next_deadline` and an `advance` with nothing due are a compare, and the
//! cache is recomputed (bit-scan to the first occupied slot, one walk of
//! that slot's list) only after the earliest timer fired or was cancelled.
//!
//! A timer fires on the first `advance(now)` with `deadline <= now`. The
//! cursor stays *on* the tick of the last `advance`, whose slot may still
//! hold entries due later within that tick; they are looked at again on the
//! next call and reported by `next_deadline`.
//!
//! A [`TimerId`] is a stable, generation-checked handle: cancelling a
//! fired, reused or already-cancelled timer is a safe no-op, never a
//! misfire of an unrelated entry.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use planet_sim::SimTime;

/// Default number of slots per level.
pub const DEFAULT_SLOTS: usize = 256;

/// Default tick width in microseconds. With 256 slots a level-0 rotation is
/// ~262 ms and level 1 reaches ~67 s: every timer the runtime arms lands in
/// the wheel.
pub const DEFAULT_TICK_US: u64 = 1024;

/// "No entry" in the intrusive slot lists.
const NIL: u32 = u32::MAX;

/// A stable handle to an armed timer, valid until the timer fires or is
/// cancelled. Generation-checked: a stale id never touches a reused slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    idx: u32,
    gen: u32,
}

/// Where a pending entry is filed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Home {
    /// Linked into `levels[level]`'s list for `slot`.
    Slot { level: u8, slot: u32 },
    /// Keyed in the overflow heap.
    Heap,
}

struct Entry<T> {
    gen: u32,
    at: SimTime,
    seq: u64,
    /// `None` while the slab index is free.
    item: Option<T>,
    home: Home,
    prev: u32,
    next: u32,
}

/// One level: a list head and an occupancy bit per slot.
struct Level {
    heads: Vec<u32>,
    occupied: Vec<u64>,
}

impl Level {
    fn new(slots: usize) -> Self {
        Level {
            heads: vec![NIL; slots],
            occupied: vec![0; slots.div_ceil(64)],
        }
    }

    /// The first occupied slot among `start, start + 1, ..` (`count` slots,
    /// wrapping), as an offset from `start`.
    fn first_occupied(&self, start: usize, count: usize) -> Option<usize> {
        let n = self.heads.len();
        let mut off = 0;
        while off < count {
            let pos = (start + off) % n;
            let bit = pos % 64;
            // Slots this word covers before it ends, the ring wraps or the
            // range runs out.
            let span = (64 - bit).min(n - pos).min(count - off);
            let first = (self.occupied[pos / 64] >> bit).trailing_zeros() as usize;
            if first < span {
                return Some(off + first);
            }
            off += span;
        }
        None
    }
}

/// The hierarchical wheel. `T` is the payload delivered on expiry.
pub struct TimerWheel<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    levels: [Level; 2],
    /// Deadlines beyond level 1, keyed `(due_us, seq, idx)`. Cancelled keys
    /// are dropped when they surface; the top is always a pending entry.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// The tick of the last `advance` that fired anything. Level 0 holds
    /// the ticks of the cursor's rotation from the cursor on (plus overdue
    /// inserts, in the cursor's own slot); level 1 the `slots` rotations
    /// after it.
    cursor: u64,
    tick_us: u64,
    seq: u64,
    live: usize,
    /// The earliest pending deadline when known; `None` after the timer
    /// that held it fired or was cancelled, until someone asks again.
    earliest: Cell<Option<SimTime>>,
    /// Scratch for `advance`: reused so steady-state firing allocates
    /// nothing.
    due: Vec<(SimTime, u64, u32)>,
}

impl<T> TimerWheel<T> {
    /// A wheel with `slots` slots per level and `tick_us` microseconds per
    /// level-0 slot.
    pub fn new(slots: usize, tick_us: u64) -> Self {
        assert!(slots > 0 && tick_us > 0, "wheel geometry must be positive");
        TimerWheel {
            entries: Vec::new(),
            free: Vec::new(),
            levels: [Level::new(slots), Level::new(slots)],
            overflow: BinaryHeap::new(),
            cursor: 0,
            tick_us,
            seq: 0,
            live: 0,
            earliest: Cell::new(None),
            due: Vec::new(),
        }
    }

    /// Armed timers currently pending.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn slots(&self) -> u64 {
        self.levels[0].heads.len() as u64
    }

    fn tick_of(&self, at: SimTime) -> u64 {
        at.as_micros() / self.tick_us
    }

    /// Arm a timer due at `at`. Returns a handle usable with
    /// [`cancel`](Self::cancel) until the timer fires.
    pub fn insert(&mut self, at: SimTime, item: T) -> TimerId {
        let seq = self.seq;
        self.seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.entries[idx as usize];
                e.at = at;
                e.seq = seq;
                e.item = Some(item);
                idx
            }
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(Entry {
                    gen: 0,
                    at,
                    seq,
                    item: Some(item),
                    home: Home::Heap,
                    prev: NIL,
                    next: NIL,
                });
                idx
            }
        };
        if self.live == 0 {
            self.earliest.set(Some(at));
        } else if let Some(min) = self.earliest.get() {
            self.earliest.set(Some(min.min(at)));
        }
        self.live += 1;
        self.file(idx);
        TimerId {
            idx,
            gen: self.entries[idx as usize].gen,
        }
    }

    /// File a pending entry under the level its deadline belongs to,
    /// relative to the cursor.
    fn file(&mut self, idx: u32) {
        let at = self.entries[idx as usize].at;
        let n = self.slots();
        // Overdue deadlines share the cursor's slot, which every `advance`
        // examines.
        let tick = self.tick_of(at).max(self.cursor);
        let rotations_ahead = tick / n - self.cursor / n;
        if rotations_ahead == 0 {
            self.link(idx, 0, (tick % n) as u32);
        } else if rotations_ahead <= n {
            self.link(idx, 1, ((tick / n) % n) as u32);
        } else {
            let seq = self.entries[idx as usize].seq;
            self.entries[idx as usize].home = Home::Heap;
            self.overflow.push(Reverse((at.as_micros(), seq, idx)));
        }
    }

    fn link(&mut self, idx: u32, level: u8, slot: u32) {
        let lv = &mut self.levels[level as usize];
        let head = std::mem::replace(&mut lv.heads[slot as usize], idx);
        lv.occupied[slot as usize / 64] |= 1 << (slot % 64);
        if head != NIL {
            self.entries[head as usize].prev = idx;
        }
        let e = &mut self.entries[idx as usize];
        e.home = Home::Slot { level, slot };
        e.prev = NIL;
        e.next = head;
    }

    fn unlink(&mut self, idx: u32, level: u8, slot: u32) {
        let (prev, next) = {
            let e = &self.entries[idx as usize];
            (e.prev, e.next)
        };
        if next != NIL {
            self.entries[next as usize].prev = prev;
        }
        if prev != NIL {
            self.entries[prev as usize].next = next;
        } else {
            let lv = &mut self.levels[level as usize];
            lv.heads[slot as usize] = next;
            if next == NIL {
                lv.occupied[slot as usize / 64] &= !(1 << (slot % 64));
            }
        }
    }

    /// Take a pending entry's payload and recycle its slab index. The entry
    /// must already be out of its slot list.
    fn release(&mut self, idx: u32) -> Option<T> {
        let e = &mut self.entries[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        e.item.take()
    }

    /// Drop cancelled keys from the top of the overflow heap, so that its
    /// top is a pending entry.
    fn settle_overflow(&mut self) {
        while let Some(&Reverse((_, seq, idx))) = self.overflow.peek() {
            let e = &self.entries[idx as usize];
            if e.item.is_some() && e.seq == seq {
                break;
            }
            self.overflow.pop();
        }
    }

    /// Cancel an armed timer. Returns `true` if it was still pending (and
    /// is now guaranteed not to fire); stale or repeated cancels are no-ops.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let (at, home) = match self.entries.get(id.idx as usize) {
            Some(e) if e.gen == id.gen && e.item.is_some() => (e.at, e.home),
            _ => return false,
        };
        if let Home::Slot { level, slot } = home {
            self.unlink(id.idx, level, slot);
        }
        self.release(id.idx);
        if home == Home::Heap {
            self.settle_overflow();
        }
        if self.earliest.get() == Some(at) {
            self.earliest.set(None);
        }
        true
    }

    /// Sweep the occupied slots among `count` slots of a level from `start`
    /// on (wrapping): every entry due at `now` moves to the `due` scratch;
    /// the others are filed anew with `refile` (a cascading level-1 slot),
    /// else stay linked (the slot of `now`'s own tick).
    fn sweep(&mut self, level: u8, start: u64, count: u64, now: SimTime, refile: bool) {
        let n = self.slots() as usize;
        let (start, count) = (start as usize, count as usize);
        let mut off = 0;
        while let Some(hit) = self.levels[level as usize].first_occupied(start + off, count - off) {
            let slot = ((start + off + hit) % n) as u32;
            let mut idx = self.levels[level as usize].heads[slot as usize];
            while idx != NIL {
                let e = &self.entries[idx as usize];
                let (next, at, seq) = (e.next, e.at, e.seq);
                if at <= now {
                    self.unlink(idx, level, slot);
                    self.due.push((at, seq, idx));
                } else if refile {
                    self.unlink(idx, level, slot);
                    self.file(idx);
                }
                idx = next;
            }
            off += hit + 1;
        }
    }

    /// Fire every timer due at or before `now`, in exact `(deadline, arm
    /// order)` order, invoking `f(deadline, item)` for each.
    pub fn advance(&mut self, now: SimTime, mut f: impl FnMut(SimTime, T)) {
        if self.next_deadline().is_none_or(|at| at > now) {
            return;
        }
        let n = self.slots();
        // A clock that stepped back still fires what `now` covers: overdue
        // entries live in the cursor's slot.
        let target = self.tick_of(now).max(self.cursor);
        let (from, to) = (self.cursor / n, target / n);
        // Level 0: the cursor's rotation, up to `target` or the rotation's
        // end. Everything before `target`'s tick is due.
        let first = self.cursor % n;
        let last = if to > from { n - 1 } else { target % n };
        self.sweep(0, first, last - first + 1, now, false);
        // Level 1: every rotation the cursor enters cascades. The cursor
        // moves first, so survivors (they share `target`'s rotation) refile
        // into level 0.
        self.cursor = target;
        self.sweep(1, (from + 1) % n, (to - from).min(n), now, true);
        while let Some(&Reverse((at_us, seq, idx))) = self.overflow.peek() {
            if at_us > now.as_micros() {
                break;
            }
            self.overflow.pop();
            self.due.push((SimTime::from_micros(at_us), seq, idx));
            // The next key may be a cancelled one.
            self.settle_overflow();
        }
        let mut due = std::mem::take(&mut self.due);
        due.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        self.earliest.set(None);
        for (at, _, idx) in due.drain(..) {
            if let Some(item) = self.release(idx) {
                f(at, item);
            }
        }
        self.due = due;
    }

    /// The earliest pending deadline, if any — what bounds a worker's park.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        if self.earliest.get().is_none() {
            self.earliest.set(self.find_earliest());
        }
        self.earliest.get()
    }

    /// The minimum over the first occupied slot (level 0 from the cursor,
    /// else level 1 from the next rotation — slots are in deadline order
    /// across both) and the overflow heap's top.
    fn find_earliest(&self) -> Option<SimTime> {
        let slots = self.slots();
        let n = slots as usize;
        let start = (self.cursor % slots) as usize;
        let next_rotation = ((self.cursor / slots + 1) % slots) as usize;
        let head = if let Some(off) = self.levels[0].first_occupied(start, n - start) {
            self.levels[0].heads[start + off]
        } else if let Some(off) = self.levels[1].first_occupied(next_rotation, n) {
            self.levels[1].heads[(next_rotation + off) % n]
        } else {
            NIL
        };
        let mut min = self
            .overflow
            .peek()
            .map(|&Reverse((at_us, _, _))| SimTime::from_micros(at_us));
        let mut idx = head;
        while idx != NIL {
            let e = &self.entries[idx as usize];
            if min.is_none_or(|m| e.at < m) {
                min = Some(e.at);
            }
            idx = e.next;
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use planet_sim::DetRng;

    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn fires_in_exact_deadline_order() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(8, 100);
        // Insert out of order, spanning multiple slots and a same-deadline
        // tie (broken by arm order).
        wheel.insert(us(750), 3);
        wheel.insert(us(120), 0);
        wheel.insert(us(500), 1);
        wheel.insert(us(500), 2);
        let mut fired = Vec::new();
        wheel.advance(us(1000), |at, v| fired.push((at.as_micros(), v)));
        assert_eq!(fired, vec![(120, 0), (500, 1), (500, 2), (750, 3)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn partial_advance_leaves_future_timers_armed() {
        let mut wheel: TimerWheel<&str> = TimerWheel::new(4, 100);
        wheel.insert(us(150), "early");
        wheel.insert(us(350), "late");
        let mut fired = Vec::new();
        wheel.advance(us(200), |_, v| fired.push(v));
        assert_eq!(fired, vec!["early"]);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.next_deadline(), Some(us(350)));
        wheel.advance(us(400), |_, v| fired.push(v));
        assert_eq!(fired, vec!["early", "late"]);
    }

    #[test]
    fn same_slot_different_rotations_fire_at_their_own_deadlines() {
        // Slot hash collision: 100us and 500us share slot 1 on a 4x100us
        // wheel. The first rotation must fire only the first.
        let mut wheel: TimerWheel<u32> = TimerWheel::new(4, 100);
        wheel.insert(us(100), 1);
        wheel.insert(us(500), 5);
        let mut fired = Vec::new();
        wheel.advance(us(250), |_, v| fired.push(v));
        assert_eq!(fired, vec![1]);
        wheel.advance(us(600), |_, v| fired.push(v));
        assert_eq!(fired, vec![1, 5]);
    }

    #[test]
    fn cancellation_prevents_fire_and_recycles_the_slab() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(8, 100);
        let keep = wheel.insert(us(300), 1);
        let kill = wheel.insert(us(200), 2);
        assert!(wheel.cancel(kill), "pending timer cancels");
        assert!(!wheel.cancel(kill), "second cancel is a no-op");
        assert_eq!(wheel.len(), 1);
        let mut fired = Vec::new();
        wheel.advance(us(1000), |_, v| fired.push(v));
        assert_eq!(fired, vec![1], "cancelled timer never fires");
        assert!(!wheel.cancel(keep), "fired timer's id is stale");
        // The freed slab entry is reused with a bumped generation: the old
        // id must not cancel the new timer.
        let renew = wheel.insert(us(400), 3);
        assert!(!wheel.cancel(kill), "stale id cannot touch a reused entry");
        assert!(wheel.cancel(renew));
    }

    #[test]
    fn overflow_deadlines_past_the_horizon_still_fire() {
        // 4 slots x 100us per rotation, 4 more rotations on level 1: 5ms is
        // past both and lands in the overflow heap.
        let mut wheel: TimerWheel<&str> = TimerWheel::new(4, 100);
        wheel.insert(us(5_000), "backstop");
        wheel.insert(us(50), "quick");
        assert_eq!(wheel.next_deadline(), Some(us(50)));
        let mut fired = Vec::new();
        wheel.advance(us(300), |_, v| fired.push(v));
        assert_eq!(fired, vec!["quick"]);
        assert_eq!(wheel.next_deadline(), Some(us(5_000)));
        wheel.advance(us(6_000), |_, v| fired.push(v));
        assert_eq!(fired, vec!["quick", "backstop"]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn re_arm_after_fire_keeps_exact_ordering() {
        // The closed-loop client pattern: every fire re-arms the next
        // deadline. Ordering must hold across generations of the same slab
        // entry.
        let mut wheel: TimerWheel<u64> = TimerWheel::new(8, 100);
        wheel.insert(us(100), 0);
        let mut fired = Vec::new();
        for round in 1..=5u64 {
            let mut due = Vec::new();
            wheel.advance(us(round * 100), |at, v| due.push((at, v)));
            for (at, v) in due {
                fired.push(v);
                wheel.insert(at + planet_sim::SimDuration::from_micros(100), v + 1);
            }
        }
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
        assert_eq!(wheel.len(), 1, "the re-armed tail stays pending");
    }

    /// Regression: the cursor used to move past the current tick even when
    /// that tick's slot still held a timer due later within it, which was
    /// then not looked at until the wheel came round (~262 ms).
    #[test]
    fn sub_tick_timer_fires_within_its_tick() {
        let tick = DEFAULT_TICK_US;
        let mut wheel: TimerWheel<u32> = TimerWheel::new(DEFAULT_SLOTS, tick);
        let now = 10 * tick + 17;
        // Two timers of one tick: the first firing puts the cursor on it.
        wheel.insert(us(now), 0);
        wheel.insert(us(now + tick / 2), 2);
        let mut fired = Vec::new();
        wheel.advance(us(now), |_, v| fired.push(v));
        assert_eq!(fired, vec![0]);
        // Armed a quarter tick ahead, behind the cursor's tick boundary.
        wheel.insert(us(now + tick / 4), 1);
        assert_eq!(wheel.next_deadline(), Some(us(now + tick / 4)));
        wheel.advance(us(now + tick / 4 - 1), |_, v| fired.push(v));
        assert_eq!(fired, vec![0], "not before its deadline");
        wheel.advance(us(now + tick / 4), |_, v| fired.push(v));
        assert_eq!(fired, vec![0, 1], "on the first advance that covers it");
        assert_eq!(wheel.next_deadline(), Some(us(now + tick / 2)));
        wheel.advance(us(now + tick / 2), |_, v| fired.push(v));
        assert_eq!(fired, vec![0, 1, 2]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn long_timers_cascade_and_cancelled_ones_free_their_entry_at_once() {
        // 10 s timers on the default geometry live on level 1.
        let mut wheel: TimerWheel<u32> = TimerWheel::new(DEFAULT_SLOTS, DEFAULT_TICK_US);
        let ids: Vec<TimerId> = (0..100u32)
            .map(|i| wheel.insert(us(10_000_000 + i as u64 * 40), i))
            .collect();
        assert!(
            wheel.overflow.is_empty(),
            "level 1 holds them, not the heap"
        );
        for id in &ids[..50] {
            assert!(wheel.cancel(*id));
        }
        assert_eq!(wheel.free.len(), 50, "no tombstones wait for expiry");
        assert_eq!(wheel.next_deadline(), Some(us(10_000_000 + 50 * 40)));
        let mut fired = Vec::new();
        wheel.advance(us(9_999_999), |_, v| fired.push(v));
        assert!(fired.is_empty());
        wheel.advance(us(10_000_000 + 60 * 40), |_, v| fired.push(v));
        assert_eq!(fired, (50..=60).collect::<Vec<u32>>());
        wheel.advance(us(20_000_000), |_, v| fired.push(v));
        assert_eq!(fired, (50..100).collect::<Vec<u32>>());
        assert!(wheel.is_empty());
    }

    /// The wheel beside a `BTreeMap<(deadline, arm order), item>` that is
    /// obviously right. After every step both must agree on what fired and
    /// in what order, on `len()` and on `next_deadline()`.
    struct Differential {
        wheel: TimerWheel<u64>,
        model: std::collections::BTreeMap<(SimTime, u64), u64>,
        /// Every id ever handed out with its model key; most go stale.
        ids: Vec<(TimerId, (SimTime, u64))>,
        now: u64,
    }

    impl Differential {
        fn new(slots: usize, tick_us: u64) -> Self {
            Differential {
                wheel: TimerWheel::new(slots, tick_us),
                model: std::collections::BTreeMap::new(),
                ids: Vec::new(),
                now: 0,
            }
        }

        fn insert(&mut self, at: u64) {
            let key = (us(at), self.ids.len() as u64);
            let id = self.wheel.insert(key.0, key.1);
            self.model.insert(key, key.1);
            self.ids.push((id, key));
            self.agree();
        }

        fn cancel(&mut self, which: usize) {
            let (id, key) = self.ids[which];
            assert_eq!(
                self.wheel.cancel(id),
                self.model.remove(&key).is_some(),
                "cancel of {key:?} at {}",
                self.now
            );
            self.agree();
        }

        fn advance(&mut self, by: u64) {
            self.now += by;
            let now = us(self.now);
            let mut fired = Vec::new();
            self.wheel.advance(now, |at, item| fired.push((at, item)));
            let mut expect = Vec::new();
            while let Some(entry) = self.model.first_entry() {
                if entry.key().0 > now {
                    break;
                }
                expect.push((entry.key().0, entry.remove()));
            }
            assert_eq!(fired, expect, "fires at {}", self.now);
            self.agree();
        }

        fn agree(&self) {
            assert_eq!(self.wheel.len(), self.model.len(), "len at {}", self.now);
            assert_eq!(
                self.wheel.next_deadline(),
                self.model.keys().next().map(|&(at, _)| at),
                "next_deadline at {}",
                self.now
            );
        }
    }

    #[test]
    fn differential_random_schedules_agree_with_the_model() {
        // A small geometry (rotation 800 us, level 1 to 7.2 ms) so every
        // regime is hit thousands of times.
        let (slots, tick) = (8u64, 100u64);
        let rotation = slots * tick;
        let horizon = rotation * (slots + 1);
        for seed in 0..8 {
            let mut rng = DetRng::new(0xD1FF + seed);
            let mut d = Differential::new(slots as usize, tick);
            for _ in 0..6_000 {
                match rng.index(10) {
                    0..=4 => {
                        let at = match rng.index(6) {
                            // Already due, the present instant, within the
                            // tick, the rotation, level 1, and past it.
                            0 => d.now.saturating_sub(rng.range_u64(1, 3 * rotation)),
                            1 => d.now,
                            2 => d.now + rng.range_u64(1, tick),
                            3 => d.now + rng.range_u64(tick, rotation),
                            4 => d.now + rng.range_u64(rotation, horizon),
                            _ => d.now + rng.range_u64(horizon, 4 * horizon),
                        };
                        d.insert(at);
                    }
                    5..=6 if !d.ids.is_empty() => {
                        // Any id ever issued: pending, fired, cancelled
                        // before, or pointing at a reused entry.
                        let which = rng.index(d.ids.len());
                        d.cancel(which);
                    }
                    _ => {
                        let by = match rng.index(8) {
                            0 => 0,
                            1..=2 => rng.range_u64(1, tick),
                            3..=5 => rng.range_u64(tick, rotation),
                            6 => rng.range_u64(rotation, horizon),
                            _ => rng.range_u64(horizon, 3 * horizon),
                        };
                        d.advance(by);
                    }
                }
            }
            d.advance(5 * horizon);
            assert!(d.model.is_empty() && d.wheel.is_empty());
        }
    }

    #[test]
    fn differential_ten_second_timers_at_25k_per_second() {
        // The coordinator's load on the default geometry: one 10 s timer
        // every 40 us of virtual time, never cancelled (a few are, here),
        // beside a short re-armed timer, with the worker advancing at
        // irregular intervals. 12 virtual seconds: the first timeouts
        // expire with a quarter of a million armed behind them.
        let mut rng = DetRng::new(25_000);
        let mut d = Differential::new(DEFAULT_SLOTS, DEFAULT_TICK_US);
        let mut until_advance = 1;
        for i in 0..300_000u64 {
            d.now = i * 40;
            d.insert(d.now + 10_000_000);
            if i % 64 == 0 {
                d.insert(d.now + rng.range_u64(1, 3_000));
            }
            if i % 1_000 == 999 {
                let which = rng.index(d.ids.len());
                d.cancel(which);
            }
            until_advance -= 1;
            if until_advance == 0 {
                until_advance = rng.range_u64(1, 200);
                d.advance(0);
            }
        }
        assert!(d.wheel.len() > 240_000);
        // A stall longer than level 1 reaches, then the rest.
        d.advance(8_000_000);
        d.advance(70_000_000);
        assert!(d.model.is_empty() && d.wheel.is_empty());
    }
}
