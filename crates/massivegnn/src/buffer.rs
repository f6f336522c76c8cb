//! The per-trainer prefetch buffer (`BUF_p^i` of the paper).
//!
//! A fixed-capacity feature cache over the partition's halo nodes. Nodes
//! are keyed by *halo index* (position in the partition's sorted
//! `halo_nodes` list), giving O(1) membership via a direct-mapped slot
//! table — the Rust equivalent of the paper's NUMBA-parallel lookup.
//! Capacity never changes after construction: every eviction is paired
//! with a replacement (§IV-B "the number of nodes chosen for replacement
//! is exactly equal to the number of nodes evicted").

/// Sentinel for "not buffered".
const NONE: u32 = u32::MAX;

/// Fixed-capacity halo-feature cache.
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    dim: usize,
    /// halo index -> slot (NONE when absent).
    slot_of_halo: Vec<u32>,
    /// slot -> halo index.
    halo_of_slot: Vec<u32>,
    /// Row-major feature storage, `capacity × dim`.
    features: Vec<f32>,
    len: usize,
}

impl PrefetchBuffer {
    /// An empty buffer for a partition with `num_halo` halo nodes and the
    /// given fixed `capacity` (`≤ num_halo`).
    pub fn new(num_halo: usize, capacity: usize, dim: usize) -> Self {
        assert!(
            capacity <= num_halo,
            "capacity {capacity} > halo {num_halo}"
        );
        PrefetchBuffer {
            dim,
            slot_of_halo: vec![NONE; num_halo],
            halo_of_slot: vec![NONE; capacity],
            features: vec![0.0; capacity * dim],
            len: 0,
        }
    }

    /// Fixed capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.halo_of_slot.len()
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot of halo index `h`, if buffered.
    #[inline]
    pub fn slot_of(&self, h: u32) -> Option<u32> {
        let s = self.slot_of_halo[h as usize];
        if s == NONE {
            None
        } else {
            Some(s)
        }
    }

    /// Whether halo index `h` is buffered (a lookup "hit").
    #[inline]
    pub fn contains(&self, h: u32) -> bool {
        self.slot_of_halo[h as usize] != NONE
    }

    /// Halo index stored in `slot` (panics on empty slot).
    #[inline]
    pub fn halo_at(&self, slot: u32) -> u32 {
        let h = self.halo_of_slot[slot as usize];
        assert_ne!(h, NONE, "slot {slot} empty");
        h
    }

    /// Feature row stored in `slot`.
    #[inline]
    pub fn row(&self, slot: u32) -> &[f32] {
        let s = slot as usize;
        &self.features[s * self.dim..(s + 1) * self.dim]
    }

    /// Insert halo node `h` into the next free slot; returns the slot.
    /// Panics when full or when `h` is already present. Its features are
    /// written by `fill`, straight into the slot's row (which it must
    /// overwrite entirely) — a pulled row is decoded there without an
    /// intermediate copy.
    pub fn insert_with(&mut self, h: u32, fill: impl FnOnce(&mut [f32])) -> u32 {
        assert!(self.len < self.capacity(), "buffer full");
        assert!(!self.contains(h), "halo {h} already buffered");
        let slot = self.len as u32;
        self.slot_of_halo[h as usize] = slot;
        self.halo_of_slot[slot as usize] = h;
        fill(&mut self.features[self.len * self.dim..(self.len + 1) * self.dim]);
        self.len += 1;
        slot
    }

    /// Replace the occupant of `slot` (evicting halo `old`) with halo
    /// `new_h`, whose features `fill` writes (see
    /// [`insert_with`](Self::insert_with)) — the paired evict-and-replace
    /// of Algorithm 2 lines 16–17. Returns the evicted halo index.
    pub fn replace_with(&mut self, slot: u32, new_h: u32, fill: impl FnOnce(&mut [f32])) -> u32 {
        assert!(!self.contains(new_h), "halo {new_h} already buffered");
        let old = self.halo_at(slot);
        self.slot_of_halo[old as usize] = NONE;
        self.slot_of_halo[new_h as usize] = slot;
        self.halo_of_slot[slot as usize] = new_h;
        let s = slot as usize;
        fill(&mut self.features[s * self.dim..(s + 1) * self.dim]);
        old
    }

    /// Partition a sampled halo-index batch into (hits, misses) —
    /// Algorithm 2 lines 4–5 — in caller-owned buffers (cleared first),
    /// so the steady-state prepare loop reuses the same two vectors every
    /// step. Large batches run on the rayon pool (the paper parallelizes
    /// this lookup with NUMBA to escape the Python GIL; here the
    /// direct-mapped table makes each probe O(1) and the split
    /// embarrassingly parallel). The shim's `partition_map` combines
    /// per-chunk results in chunk order, so both output vectors preserve
    /// input order exactly like the serial loop, at any thread count.
    pub fn probe_batch_into(&self, sampled: &[u32], hits: &mut Vec<u32>, misses: &mut Vec<u32>) {
        const PAR_THRESHOLD: usize = 4096;
        hits.clear();
        misses.clear();
        if sampled.len() < PAR_THRESHOLD {
            for &h in sampled {
                if self.contains(h) {
                    hits.push(h);
                } else {
                    misses.push(h);
                }
            }
        } else {
            use rayon::prelude::*;
            let (h, m): (Vec<u32>, Vec<u32>) = sampled.par_iter().partition_map(|&h| {
                if self.contains(h) {
                    rayon::iter::Either::Left(h)
                } else {
                    rayon::iter::Either::Right(h)
                }
            });
            hits.extend_from_slice(&h);
            misses.extend_from_slice(&m);
        }
    }

    /// Iterate over occupied `(slot, halo_index)` pairs.
    pub fn occupied(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.halo_of_slot
            .iter()
            .enumerate()
            .take(self.len)
            .map(|(s, &h)| (s as u32, h))
    }

    /// Heap bytes of the buffer (features + both index maps) — Fig. 14's
    /// dominant initialization allocation.
    pub fn heap_bytes(&self) -> usize {
        self.features.len() * 4 + self.slot_of_halo.len() * 4 + self.halo_of_slot.len() * 4
    }

    /// Internal consistency check for tests: maps are mutually inverse and
    /// occupancy is a prefix.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = 0usize;
        for (s, &h) in self.halo_of_slot.iter().enumerate() {
            if h == NONE {
                continue;
            }
            seen += 1;
            if self.slot_of_halo[h as usize] != s as u32 {
                return Err(format!("slot {s} / halo {h} maps disagree"));
            }
        }
        if seen != self.len {
            return Err(format!("len {} but {} occupied", self.len, seen));
        }
        for (h, &s) in self.slot_of_halo.iter().enumerate() {
            if s != NONE && self.halo_of_slot[s as usize] != h as u32 {
                return Err(format!("halo {h} / slot {s} maps disagree"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert(b: &mut PrefetchBuffer, h: u32, feat: &[f32]) -> u32 {
        b.insert_with(h, |row| row.copy_from_slice(feat))
    }

    #[test]
    fn insert_and_lookup() {
        let mut b = PrefetchBuffer::new(10, 3, 2);
        let s = insert(&mut b, 7, &[1.0, 2.0]);
        assert_eq!(b.slot_of(7), Some(s));
        assert!(b.contains(7));
        assert!(!b.contains(3));
        assert_eq!(b.row(s), &[1.0, 2.0]);
        assert_eq!(b.halo_at(s), 7);
        assert_eq!(b.len(), 1);
        b.check_invariants().unwrap();
    }

    #[test]
    fn replace_swaps_occupant() {
        let mut b = PrefetchBuffer::new(10, 2, 2);
        let s = insert(&mut b, 1, &[1.0, 1.0]);
        insert(&mut b, 2, &[2.0, 2.0]);
        let old = b.replace_with(s, 5, |row| row.copy_from_slice(&[5.0, 5.0]));
        assert_eq!(old, 1);
        assert!(!b.contains(1));
        assert!(b.contains(5));
        assert_eq!(b.row(s), &[5.0, 5.0]);
        assert_eq!(b.len(), 2, "capacity constant under replace");
        b.check_invariants().unwrap();
    }

    #[test]
    fn fill_forms_write_the_slot_in_place() {
        let mut b = PrefetchBuffer::new(10, 2, 2);
        let s = b.insert_with(4, |row| row.fill(4.0));
        assert_eq!(b.row(s), &[4.0, 4.0]);
        let old = b.replace_with(s, 6, |row| {
            assert_eq!(row, [4.0, 4.0], "the evicted row, to be overwritten");
            row.copy_from_slice(&[6.0, 6.5]);
        });
        assert_eq!(old, 4);
        assert_eq!(b.row(s), &[6.0, 6.5]);
        b.check_invariants().unwrap();
    }

    #[test]
    #[should_panic]
    fn wrong_width_row_rejected() {
        insert(&mut PrefetchBuffer::new(5, 1, 2), 0, &[0.0]);
    }

    #[test]
    #[should_panic]
    fn insert_when_full_panics() {
        let mut b = PrefetchBuffer::new(5, 1, 1);
        insert(&mut b, 0, &[0.0]);
        insert(&mut b, 1, &[1.0]);
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut b = PrefetchBuffer::new(5, 2, 1);
        insert(&mut b, 0, &[0.0]);
        insert(&mut b, 0, &[0.0]);
    }

    #[test]
    fn occupied_iterates_in_slot_order() {
        let mut b = PrefetchBuffer::new(10, 3, 1);
        insert(&mut b, 9, &[9.0]);
        insert(&mut b, 4, &[4.0]);
        let pairs: Vec<_> = b.occupied().collect();
        assert_eq!(pairs, vec![(0, 9), (1, 4)]);
    }

    #[test]
    fn zero_capacity_ok() {
        let b = PrefetchBuffer::new(5, 0, 4);
        assert_eq!(b.capacity(), 0);
        assert!(b.is_empty());
        b.check_invariants().unwrap();
    }

    #[test]
    fn probe_batch_splits_correctly() {
        let mut b = PrefetchBuffer::new(100, 10, 1);
        for h in 0..10u32 {
            insert(&mut b, h * 3, &[h as f32]);
        }
        let sampled: Vec<u32> = (0..60).collect();
        let (mut hits, mut misses) = (Vec::new(), Vec::new());
        b.probe_batch_into(&sampled, &mut hits, &mut misses);
        assert_eq!(hits.len() + misses.len(), 60);
        for &h in &hits {
            assert!(b.contains(h));
        }
        for &m in &misses {
            assert!(!b.contains(m));
        }
        // Serial and would-be-parallel agree on membership (order within
        // each class is also preserved in serial mode).
        assert_eq!(hits, vec![0, 3, 6, 9, 12, 15, 18, 21, 24, 27]);
    }

    #[test]
    fn probe_batch_large_parallel_path() {
        let mut b = PrefetchBuffer::new(100_000, 1000, 1);
        for h in 0..1000u32 {
            insert(&mut b, h * 7, &[0.0]);
        }
        let sampled: Vec<u32> = (0..50_000).collect();
        let (mut hits, mut misses) = (Vec::new(), Vec::new());
        b.probe_batch_into(&sampled, &mut hits, &mut misses);
        assert_eq!(hits.len() + misses.len(), 50_000);
        let expected_hits = sampled.iter().filter(|&&h| b.contains(h)).count();
        assert_eq!(hits.len(), expected_hits);
    }

    #[test]
    fn heap_bytes_counts_feature_storage() {
        let b = PrefetchBuffer::new(100, 50, 8);
        assert!(b.heap_bytes() >= 50 * 8 * 4);
    }
}
