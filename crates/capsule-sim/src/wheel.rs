//! The machine's pending completion events, filed by due cycle.
//!
//! A timing wheel of [`SPOKES`] per-cycle buckets replaces a binary heap:
//! issue files an event in O(1) and the complete stage empties exactly
//! one bucket per cycle, with no comparisons. An event due [`SPOKES`] or
//! more cycles ahead (a main-memory miss under a long `mem_latency`)
//! goes to a small overflow heap instead, which the complete stage also
//! polls.
//!
//! Events carry no order within a cycle: the complete stage only wakes
//! consumers, and the machine keeps its ready list sorted by age, so the
//! order in which one cycle's events fire cannot change a result.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Buckets on the wheel (a power of two, so a cycle maps to its bucket
/// with a mask).
pub(crate) const SPOKES: usize = 512;
const MASK: u64 = SPOKES as u64 - 1;

/// One completion: the issuing context slot and the entry's arena index.
pub(crate) type Event = (usize, u32);

/// Pending completion events.
///
/// Invariant: every bucketed event is due in `[open, open + SPOKES)`,
/// where `open` is the first cycle whose complete stage has not run, so
/// bucket `c & MASK` holds the events of cycle `c` only. The machine
/// keeps it by running the complete stage on every cycle that has an
/// event: the idle fast-forward never jumps past [`Wheel::next_due`].
#[derive(Debug)]
pub(crate) struct Wheel {
    buckets: Vec<Vec<Event>>,
    /// Events in `buckets` (the overflow heap counts its own).
    bucketed: usize,
    /// Events due `SPOKES` or more cycles past `open` when filed, keyed
    /// by due cycle.
    overflow: BinaryHeap<Reverse<(u64, usize, u32)>>,
}

impl Default for Wheel {
    fn default() -> Self {
        Wheel { buckets: vec![Vec::new(); SPOKES], bucketed: 0, overflow: BinaryHeap::new() }
    }
}

impl Wheel {
    /// Drops every event, keeping the buckets' capacity.
    pub fn clear(&mut self) {
        if self.bucketed > 0 {
            self.buckets.iter_mut().for_each(Vec::clear);
            self.bucketed = 0;
        }
        self.overflow.clear();
    }

    /// Number of pending events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    /// Files `event` to fire at cycle `at`, or at `open` if `at` is
    /// already past: `open` is the first cycle whose complete stage has
    /// not run (`cycle + 1` from issue, `cycle` on restore).
    pub fn push(&mut self, open: u64, at: u64, event: Event) {
        let at = at.max(open);
        if at - open < SPOKES as u64 {
            self.buckets[(at & MASK) as usize].push(event);
            self.bucketed += 1;
        } else {
            self.overflow.push(Reverse((at, event.0, event.1)));
        }
    }

    /// Whether any event is due at `now`.
    pub fn due(&self, now: u64) -> bool {
        !self.buckets[(now & MASK) as usize].is_empty()
            || self.overflow.peek().is_some_and(|&Reverse((at, _, _))| at <= now)
    }

    /// The first cycle at or after `now` with an event, if any.
    pub fn next_due(&self, now: u64) -> Option<u64> {
        let far = self.overflow.peek().map(|&Reverse((at, _, _))| at);
        if self.bucketed == 0 {
            return far;
        }
        let near = (now..now + SPOKES as u64)
            .find(|&c| !self.buckets[(c & MASK) as usize].is_empty())
            .expect("bucketed events lie within one turn of the wheel");
        Some(far.map_or(near, |f| f.min(near)))
    }

    /// Fires every event due at `now`, in no particular order; returns
    /// how many fired.
    pub fn fire_due(&mut self, now: u64, mut fire: impl FnMut(Event)) -> u64 {
        let bucket = &mut self.buckets[(now & MASK) as usize];
        let mut fired = bucket.len();
        self.bucketed -= fired;
        bucket.drain(..).for_each(&mut fire);
        while let Some(&Reverse((at, slot, idx))) = self.overflow.peek() {
            if at > now {
                break;
            }
            self.overflow.pop();
            fire((slot, idx));
            fired += 1;
        }
        fired as u64
    }

    /// Every pending event, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buckets
            .iter()
            .flatten()
            .copied()
            .chain(self.overflow.iter().map(|&Reverse((_, slot, idx))| (slot, idx)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps the wheel like the machine does: jump to the next due cycle,
    /// fire it, move on. Returns `(cycle, event)` in firing order.
    fn run_out(w: &mut Wheel, mut now: u64) -> Vec<(u64, Event)> {
        let mut fired = Vec::new();
        while let Some(at) = w.next_due(now) {
            assert!(at >= now, "next_due went backwards");
            assert!(w.due(at));
            now = at;
            w.fire_due(now, |e| fired.push((now, e)));
            assert!(!w.due(now), "a fired cycle must be empty");
            now += 1;
        }
        assert_eq!(w.len(), 0);
        fired
    }

    #[test]
    fn events_fire_at_exactly_their_cycle_across_the_wheel_edge() {
        for open in [0, 7, 511, 512, 1_000_003] {
            let mut w = Wheel::default();
            let ats = [open, open + 511, open + 512, open + 10 * SPOKES as u64];
            for (k, &at) in ats.iter().enumerate() {
                w.push(open, at, (k, k as u32));
            }
            assert_eq!(w.len(), 4);
            assert_eq!(w.overflow.len(), 2, "+512 and beyond go to the overflow heap");
            assert_eq!(w.next_due(open), Some(open));
            let fired = run_out(&mut w, open);
            let want: Vec<(u64, Event)> =
                ats.iter().enumerate().map(|(k, &at)| (at, (k, k as u32))).collect();
            assert_eq!(fired, want, "open {open}");
        }
    }

    #[test]
    fn next_due_reports_each_event_in_turn() {
        let mut w = Wheel::default();
        let open = 100;
        for at in [open + 10 * 512, open + 512, open + 511, open] {
            w.push(open, at, (0, 0));
        }
        let mut now = open;
        for at in [open, open + 511, open + 512, open + 10 * 512] {
            assert_eq!(w.next_due(now), Some(at));
            assert_eq!(w.fire_due(at, |_| {}), 1);
            now = at + 1;
        }
        assert_eq!(w.next_due(now), None);
    }

    #[test]
    fn a_past_due_event_fires_at_open() {
        let mut w = Wheel::default();
        w.push(50, 40, (1, 9));
        assert!(w.due(50));
        let mut got = Vec::new();
        assert_eq!(w.fire_due(50, |e| got.push(e)), 1);
        assert_eq!(got, vec![(1, 9)]);
    }

    #[test]
    fn clear_empties_buckets_and_overflow() {
        let mut w = Wheel::default();
        w.push(0, 3, (0, 1));
        w.push(0, 5_000, (0, 2));
        assert_eq!(w.iter().count(), 2);
        w.clear();
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_due(0), None);
        assert_eq!(w.iter().count(), 0);
    }
}
