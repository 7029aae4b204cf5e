//! Merkle trees for integrity protection of stored data modules (§3.3).
//!
//! A data module replicated across untrusted storage devices keeps a
//! Merkle root inside the trusted environment; any chunk fetched back is
//! verified with an inclusion proof, detecting tampering by the provider
//! or the storage substrate.

use crate::sha256::{sha256, Sha256};

/// Domain-separation prefixes so a leaf can never be confused with an
/// interior node (second-preimage hardening).
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

fn hash_leaf(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(data);
    h.finalize()
}

fn hash_node(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[NODE_PREFIX]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// A Merkle tree over a sequence of data chunks.
///
/// Odd nodes at each level are promoted (Bitcoin-style duplication is
/// avoided; the lone node moves up unchanged).
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// levels\[0\] = leaf hashes, last level = [root].
    levels: Vec<Vec<[u8; 32]>>,
}

/// An inclusion proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling hashes from leaf level upward, with the side the sibling
    /// is on (`true` = sibling is on the right).
    pub siblings: Vec<([u8; 32], bool)>,
}

impl MerkleTree {
    /// Builds a tree over `chunks`. Returns `None` for an empty input
    /// (an empty data module has no meaningful root).
    pub fn build<T: AsRef<[u8]>>(chunks: &[T]) -> Option<Self> {
        if chunks.is_empty() {
            return None;
        }
        let mut levels = vec![chunks
            .iter()
            .map(|c| hash_leaf(c.as_ref()))
            .collect::<Vec<_>>()];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            let mut i = 0;
            while i < prev.len() {
                if i + 1 < prev.len() {
                    next.push(hash_node(&prev[i], &prev[i + 1]));
                    i += 2;
                } else {
                    // Odd node promoted unchanged.
                    next.push(prev[i]);
                    i += 1;
                }
            }
            levels.push(next);
        }
        Some(Self { levels })
    }

    /// The root hash.
    pub fn root(&self) -> [u8; 32] {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True when the tree has exactly one leaf.
    pub fn is_empty(&self) -> bool {
        false // Construction guarantees at least one leaf.
    }

    /// Produces an inclusion proof for leaf `index`, or `None` when the
    /// index is out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            if sibling_idx < level.len() {
                let right = sibling_idx > idx;
                siblings.push((level[sibling_idx], right));
            }
            // If no sibling (odd promoted node), nothing is recorded and
            // the hash passes through unchanged — mirrored in verify.
            idx /= 2;
        }
        Some(MerkleProof { index, siblings })
    }

    /// Verifies that `chunk` is the leaf at `proof.index` under `root`.
    pub fn verify(root: &[u8; 32], chunk: &[u8], proof: &MerkleProof) -> bool {
        let mut hash = hash_leaf(chunk);
        for (sibling, right) in &proof.siblings {
            hash = if *right {
                hash_node(&hash, sibling)
            } else {
                hash_node(sibling, &hash)
            };
        }
        hash == *root
    }
}

/// Convenience: hashes a whole data module into a root directly.
pub fn merkle_root<T: AsRef<[u8]>>(chunks: &[T]) -> Option<[u8; 32]> {
    MerkleTree::build(chunks).map(|t| t.root())
}

/// One-shot content hash for non-chunked integrity protection.
pub fn content_hash(data: &[u8]) -> [u8; 32] {
    sha256(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("chunk-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_input_has_no_tree() {
        assert!(MerkleTree::build::<Vec<u8>>(&[]).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::build(&chunks(1)).unwrap();
        assert_eq!(t.root(), hash_leaf(b"chunk-0"));
        let p = t.prove(0).unwrap();
        assert!(p.siblings.is_empty());
        assert!(MerkleTree::verify(&t.root(), b"chunk-0", &p));
    }

    #[test]
    fn all_proofs_verify_various_sizes() {
        for n in [1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33] {
            let cs = chunks(n);
            let t = MerkleTree::build(&cs).unwrap();
            for (i, c) in cs.iter().enumerate() {
                let p = t.prove(i).unwrap();
                assert!(MerkleTree::verify(&t.root(), c, &p), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn tampered_chunk_fails() {
        let cs = chunks(8);
        let t = MerkleTree::build(&cs).unwrap();
        let p = t.prove(3).unwrap();
        assert!(!MerkleTree::verify(&t.root(), b"chunk-EVIL", &p));
    }

    #[test]
    fn wrong_index_proof_fails() {
        let cs = chunks(8);
        let t = MerkleTree::build(&cs).unwrap();
        let p = t.prove(3).unwrap();
        assert!(!MerkleTree::verify(&t.root(), b"chunk-4", &p));
    }

    #[test]
    fn tampered_sibling_fails() {
        let cs = chunks(4);
        let t = MerkleTree::build(&cs).unwrap();
        let mut p = t.prove(0).unwrap();
        p.siblings[0].0[0] ^= 1;
        assert!(!MerkleTree::verify(&t.root(), b"chunk-0", &p));
    }

    #[test]
    fn out_of_range_proof_none() {
        let t = MerkleTree::build(&chunks(4)).unwrap();
        assert!(t.prove(4).is_none());
    }

    #[test]
    fn root_changes_with_content_and_order() {
        let r1 = merkle_root(&chunks(4)).unwrap();
        let mut swapped = chunks(4);
        swapped.swap(0, 1);
        let r2 = merkle_root(&swapped).unwrap();
        assert_ne!(r1, r2);
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A single chunk equal to an interior-node preimage must not
        // produce that interior hash.
        let cs = chunks(2);
        let t = MerkleTree::build(&cs).unwrap();
        let forged: Vec<u8> = {
            let l0 = hash_leaf(b"chunk-0");
            let l1 = hash_leaf(b"chunk-1");
            let mut v = Vec::new();
            v.extend_from_slice(&l0);
            v.extend_from_slice(&l1);
            v
        };
        assert_ne!(hash_leaf(&forged), t.root());
    }
}
