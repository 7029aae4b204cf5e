//! The ready bitmap over dense ranks: [`ReadySet`] is the two-level
//! bitmap [`crate::system::System`] walks each round.

/// Two-level bitmap over dense ranks: bit `r` of `words` is set iff
/// rank `r` has pending mail; `summary` has one bit per word so a round
/// can skip 4096 idle ranks per summary word probed.
#[derive(Default)]
pub(crate) struct ReadySet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl ReadySet {
    /// Clears and resizes for `n` ranks.
    pub fn reset(&mut self, n: usize) {
        let w = n.div_ceil(64);
        self.words.clear();
        self.words.resize(w, 0);
        let s = w.div_ceil(64);
        self.summary.clear();
        self.summary.resize(s, 0);
    }

    #[inline]
    pub fn set(&mut self, rank: u32) {
        let w = (rank / 64) as usize;
        self.words[w] |= 1u64 << (rank % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }

    #[inline]
    pub fn clear(&mut self, rank: u32) {
        let w = (rank / 64) as usize;
        self.words[w] &= !(1u64 << (rank % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
    }

    /// Smallest set rank `>= from`, if any.
    pub fn next_at_or_after(&self, from: u32) -> Option<u32> {
        let w0 = (from / 64) as usize;
        if w0 >= self.words.len() {
            return None;
        }
        let bits = self.words[w0] & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(w0 as u32 * 64 + bits.trailing_zeros());
        }
        // Jump word-to-word via the summary.
        let next_w = w0 + 1;
        let mut sw = next_w / 64;
        let mut smask = if sw * 64 < next_w {
            !0u64 << (next_w % 64)
        } else {
            !0u64
        };
        while sw < self.summary.len() {
            let sbits = self.summary[sw] & smask;
            if sbits != 0 {
                let wi = sw * 64 + sbits.trailing_zeros() as usize;
                let b = self.words[wi];
                debug_assert_ne!(b, 0, "summary bit implies a non-empty word");
                return Some(wi as u32 * 64 + b.trailing_zeros());
            }
            sw += 1;
            smask = !0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_set_walks_sparse_bits_via_summary() {
        let mut r = ReadySet::default();
        r.reset(10_000);
        for rank in [0u32, 63, 64, 4095, 4096, 9999] {
            r.set(rank);
        }
        let mut seen = Vec::new();
        let mut cursor = 0;
        while let Some(rank) = r.next_at_or_after(cursor) {
            seen.push(rank);
            cursor = rank + 1;
        }
        assert_eq!(seen, vec![0, 63, 64, 4095, 4096, 9999]);
        r.clear(4096);
        assert_eq!(r.next_at_or_after(4096), Some(9999));
    }
}
