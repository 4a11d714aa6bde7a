//! A hierarchical timer wheel with the *exact* `(time, seq)` total order
//! of a binary heap.
//!
//! A binary heap costs `O(log n)` per operation with a comparison-heavy
//! inner loop, and population-scale worlds (10⁶ users, 10⁸ events) spend
//! most of their time in the event queue, so the simulator's queue is a
//! classic hashed-hierarchical timer wheel (Varghese & Lauck)
//! specialised to its workload: near-future timestamps, monotonically
//! advancing cursor, strict determinism.
//!
//! **Ordering contract.** `pop` and `peek` report entries in
//! ascending `(time, seq)` order — exactly what a binary heap would
//! return, which the differential test below checks against a heap
//! oracle. Entries pushed *behind* the cursor (the simulator's public
//! `post_at` accepts any time) are clamped to the cursor for placement
//! but keep their original time; see `push` for the precise semantics.
//!
//! Layout: 11 levels × 64 slots, 6 bits per level, covering the full
//! `u64` microsecond timeline. Level 0 resolves single microseconds;
//! level `l` buckets `64^l` µs. A `u64` occupancy bitmap per level turns
//! "find earliest" into `trailing_zeros`. When level 0 drains, the
//! lowest occupied slot of the lowest occupied level is *cascaded*:
//! drained wholesale, the cursor advanced to that bucket's base, and its
//! entries re-inserted one level (or more) down.

const BITS: u32 = 6;
const SLOTS: usize = 1 << BITS; // 64
const LEVELS: usize = 11; // 6 × 11 = 66 bits ≥ the full u64 range

/// One queued entry: the `(time, seq)` sort key plus the payload.
#[derive(Clone, Debug)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

/// A slot holds entries of one bucket, sorted lazily (descending, so
/// `Vec::pop` yields the minimum) only when the bucket is actually read.
#[derive(Clone, Debug)]
struct Slot<T> {
    entries: Vec<Entry<T>>,
    sorted: bool,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot {
            entries: Vec::new(),
            sorted: true,
        }
    }
}

impl<T> Slot<T> {
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // Descending by (time, seq): the minimum ends up last, so the
            // hot path pops from the tail without shifting.
            self.entries
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
            self.sorted = true;
        }
    }
}

/// Hierarchical timer wheel keyed by `(time, seq)`.
///
/// Generic over the payload so the simulator stores `(NodeId,
/// EventKind)` and the population engine (`dcp-worlds`) stores its own
/// compact event type.
#[derive(Clone, Debug)]
pub struct TimerWheel<T> {
    levels: Vec<Vec<Slot<T>>>,
    /// Per-level occupancy bitmap: bit `s` set ⇔ slot `s` is non-empty.
    occupied: [u64; LEVELS],
    /// The pop frontier: every stored entry's *clamped* time is ≥ `cur`,
    /// and its digit at its level is ≥ `cur`'s digit at that level.
    cur: u64,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with the cursor at time 0.
    pub fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Slot::default()).collect())
                .collect(),
            occupied: [0; LEVELS],
            cur: 0,
            len: 0,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the wheel empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `item` at `(time, seq)`. `seq` must be unique per push (the
    /// simulator's monotone sequence counter); ties in `time` pop in
    /// `seq` order. A `time` earlier than the pop frontier is placed *at*
    /// the frontier but keeps its original time — exactly the order a
    /// binary heap would produce, since everything still queued is at or
    /// past the frontier anyway.
    pub fn push(&mut self, time: u64, seq: u64, item: T) {
        self.insert(Entry { time, seq, item });
        self.len += 1;
    }

    fn insert(&mut self, e: Entry<T>) {
        let clamped = e.time.max(self.cur);
        let diff = clamped ^ self.cur;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / BITS) as usize
        };
        let slot_ix = ((clamped >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let slot = &mut self.levels[level][slot_ix];
        if !slot.entries.is_empty() {
            slot.sorted = false;
        }
        slot.entries.push(e);
        self.occupied[level] |= 1u64 << slot_ix;
    }

    /// Advance until level 0 holds the global minimum, cascading
    /// higher-level buckets down as needed. Caller guarantees `len > 0`.
    fn settle(&mut self) {
        while self.occupied[0] == 0 {
            let level = (1..LEVELS)
                .find(|&l| self.occupied[l] != 0)
                .expect("settle called on an empty wheel");
            let slot_ix = self.occupied[level].trailing_zeros() as usize;
            self.occupied[level] &= !(1u64 << slot_ix);
            // Taking the bucket's buffer releases its capacity once the
            // entries have cascaded down. Draining it in place instead
            // saved 538 of a sim-vpn world's 4,672 allocations, but it
            // doubled pop-mixnet's peak RSS (14.1 → 28.4 MB): a 100k-user
            // wheel keeps every large higher-level bucket it ever filled.
            let entries = std::mem::take(&mut self.levels[level][slot_ix].entries);
            self.levels[level][slot_ix].sorted = true;
            // Move the cursor to the bucket's base time. Slots below this
            // one at the same level were already drained (we always take
            // the lowest), so no remaining entry falls behind the cursor.
            let shift = BITS * level as u32;
            let width = shift + BITS;
            let upper = if width >= 64 {
                0
            } else {
                !((1u64 << width) - 1)
            };
            self.cur = (self.cur & upper) | ((slot_ix as u64) << shift);
            for e in entries {
                self.insert(e);
            }
        }
    }

    /// The `(time, seq)` key of the minimum entry, with its original
    /// time, without removing it. Takes `&mut self` because locating the
    /// minimum may cascade buckets down — a reorganisation, not a
    /// mutation of the contents.
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let slot_ix = self.occupied[0].trailing_zeros() as usize;
        let slot = &mut self.levels[0][slot_ix];
        slot.ensure_sorted();
        slot.entries.last().map(|e| (e.time, e.seq))
    }

    /// Remove and return the `(time, seq)`-minimum entry.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let slot_ix = self.occupied[0].trailing_zeros() as usize;
        let slot = &mut self.levels[0][slot_ix];
        slot.ensure_sorted();
        let e = slot.entries.pop().expect("occupied bit set on empty slot");
        if slot.entries.is_empty() {
            self.occupied[0] &= !(1u64 << slot_ix);
        }
        self.cur = (self.cur & !(SLOTS as u64 - 1)) | slot_ix as u64;
        self.len -= 1;
        Some((e.time, e.seq, e.item))
    }

    /// Every queued entry as `(time, seq, item)` in ascending `(time,
    /// seq)` order, without disturbing the wheel. This is the canonical
    /// serialization for checkpoints: re-pushing the list into a fresh
    /// wheel reproduces the exact pop order.
    pub fn snapshot(&self) -> Vec<(u64, u64, T)>
    where
        T: Clone,
    {
        let mut out: Vec<(u64, u64, T)> = self
            .levels
            .iter()
            .flatten()
            .flat_map(|s| s.entries.iter())
            .map(|e| (e.time, e.seq, e.item.clone()))
            .collect();
        out.sort_unstable_by_key(|&(t, s, _)| (t, s));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(300, 0, "c");
        w.push(100, 2, "b");
        w.push(100, 1, "a");
        assert_eq!(w.len(), 3);
        assert_eq!(w.peek(), Some((100, 1)));
        assert_eq!(w.pop(), Some((100, 1, "a")));
        assert_eq!(w.pop(), Some((100, 2, "b")));
        assert_eq!(w.pop(), Some((300, 0, "c")));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn crosses_level_boundaries() {
        // Times straddling 64, 64², 64³ … boundaries cascade correctly.
        let mut w = TimerWheel::new();
        let times = [0u64, 63, 64, 65, 4095, 4096, 262_143, 262_144, 1 << 30];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u64, t);
        }
        let mut popped = Vec::new();
        while let Some((t, _, _)) = w.pop() {
            popped.push(t);
        }
        let mut expect = times.to_vec();
        expect.sort_unstable();
        assert_eq!(popped, expect);
    }

    #[test]
    fn far_future_and_u64_extremes() {
        let mut w = TimerWheel::new();
        w.push(u64::MAX, 0, "end of time");
        w.push(1, 1, "soon");
        w.push(u64::MAX - 1, 2, "almost");
        w.push(u64::MAX, 3, "end of time too");
        assert_eq!(w.pop(), Some((1, 1, "soon")));
        assert_eq!(w.pop(), Some((u64::MAX - 1, 2, "almost")));
        assert_eq!(w.pop(), Some((u64::MAX, 0, "end of time")));
        assert_eq!(w.pop(), Some((u64::MAX, 3, "end of time too")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn behind_cursor_push_keeps_original_time() {
        // The heap semantics: a late insert below the frontier pops
        // next (nothing queued is earlier) and reports its own time.
        let mut w = TimerWheel::new();
        w.push(1000, 0, ());
        assert_eq!(w.pop(), Some((1000, 0, ())));
        w.push(50, 1, ());
        w.push(1000, 2, ());
        assert_eq!(w.pop(), Some((50, 1, ())), "original time preserved");
        assert_eq!(w.pop(), Some((1000, 2, ())));
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // Randomized differential test against BinaryHeap, driving the
        // wheel the way `Network` does: `peek` before every pop (the
        // `run_until` deadline check), peeks that stop short of a pop (a
        // deadline hit, after which the wheel may have cascaded past the
        // last popped time), pushes at or past the frontier (handlers
        // schedule at `now + delay`), and occasional pushes *behind* it
        // (the public `post_at`/`post_timer_at` accept any time).
        // Mixed-congruential RNG keeps this dependency-free.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut wheel = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut frontier = 0u64;
        let mut behind = 0;
        for round in 0..20_000 {
            let want_peek = heap.peek().map(|&Reverse(k)| k);
            match rng() % 8 {
                0..=4 => {
                    // Mostly-near, occasionally-far future delays exercise
                    // every level; one push in sixteen lands behind the
                    // frontier.
                    let t = if rng() % 16 == 0 {
                        behind += 1;
                        frontier.saturating_sub(1 + rng() % 4096)
                    } else {
                        frontier
                            + match rng() % 10 {
                                0 => rng() % (1 << 30),
                                1..=3 => rng() % (1 << 13),
                                _ => rng() % 64,
                            }
                    };
                    wheel.push(t, seq, round);
                    heap.push(Reverse((t, seq)));
                    seq += 1;
                }
                5 => assert_eq!(wheel.peek(), want_peek, "peek at round {round}"),
                _ => {
                    assert_eq!(wheel.peek(), want_peek, "peek at round {round}");
                    let got = wheel.pop().map(|(t, s, _)| (t, s));
                    let want = heap.pop().map(|Reverse(k)| k);
                    assert_eq!(got, want, "divergence at round {round}");
                    if let Some((t, _)) = got {
                        frontier = frontier.max(t);
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len());
        }
        assert!(behind > 100, "behind-frontier pushes exercised: {behind}");
        loop {
            assert_eq!(wheel.peek(), heap.peek().map(|&Reverse(k)| k));
            let got = wheel.pop().map(|(t, s, _)| (t, s));
            let want = heap.pop().map(|Reverse(k)| k);
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn snapshot_is_sorted_and_round_trips() {
        let mut w = TimerWheel::new();
        w.push(500, 0, 'x');
        w.push(20, 1, 'y');
        w.push(20, 2, 'z');
        w.push(1 << 40, 3, 'w');
        let snap = w.snapshot();
        assert_eq!(
            snap.iter().map(|&(t, s, _)| (t, s)).collect::<Vec<_>>(),
            vec![(20, 1), (20, 2), (500, 0), (1 << 40, 3)]
        );
        // Rebuild from the snapshot: identical pop order.
        let mut rebuilt = TimerWheel::new();
        for (t, s, item) in snap {
            rebuilt.push(t, s, item);
        }
        while let Some(a) = w.pop() {
            assert_eq!(Some(a), rebuilt.pop());
        }
        assert!(rebuilt.is_empty());
    }

    #[test]
    fn peek_agrees_with_pop_and_does_not_consume() {
        let mut w = TimerWheel::new();
        for i in 0..100u64 {
            w.push(i * 37 % 1000, i, i);
        }
        while !w.is_empty() {
            let peeked = w.peek();
            let (t, s, _) = w.pop().unwrap();
            assert_eq!(peeked, Some((t, s)));
        }
        assert_eq!(w.peek(), None);
    }
}
