//! Use positions and next-use queries for straight-line code.

use std::collections::HashMap;

use bsched_ir::{BasicBlock, Reg};

/// Precomputed use positions of every register in a block, supporting the
/// Belady ("farthest next use") eviction heuristic.
#[derive(Debug, Clone)]
pub struct UsePositions {
    positions: HashMap<Reg, Vec<usize>>,
}

impl UsePositions {
    /// Scans `block` once, recording every instruction index at which each
    /// register is used (read).
    #[must_use]
    pub fn compute(block: &BasicBlock) -> Self {
        let mut positions: HashMap<Reg, Vec<usize>> = HashMap::new();
        for (idx, inst) in block.insts().iter().enumerate() {
            for &u in inst.uses() {
                positions.entry(u).or_default().push(idx);
            }
        }
        Self { positions }
    }

    /// The first use of `reg` at or after instruction index `from`, or
    /// `None` if the value is dead from there on.
    #[must_use]
    pub fn next_use_at_or_after(&self, reg: Reg, from: usize) -> Option<usize> {
        let uses = self.positions.get(&reg)?;
        match uses.binary_search(&from) {
            Ok(_) => Some(from),
            Err(i) => uses.get(i).copied(),
        }
    }

    /// `true` if `reg` is never read at or after index `from`.
    #[must_use]
    pub fn dead_after(&self, reg: Reg, from: usize) -> bool {
        self.next_use_at_or_after(reg, from).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::BlockBuilder;

    #[test]
    fn next_use_queries() {
        let mut b = BlockBuilder::new("t");
        let base = b.def_int("base"); // 0
        let x = b.load("x", base, 0); // 1 uses base
        let y = b.fadd("y", x, x); // 2 uses x twice
        let _ = b.fadd("z", y, x); // 3 uses y, x
        let block = b.finish();
        let up = UsePositions::compute(&block);

        assert_eq!(up.next_use_at_or_after(base, 0), Some(1));
        assert_eq!(up.next_use_at_or_after(base, 2), None);
        assert!(up.dead_after(base, 2));
        assert_eq!(
            up.next_use_at_or_after(x, 2),
            Some(2),
            "at-or-after includes current"
        );
        assert_eq!(up.next_use_at_or_after(x, 3), Some(3));
        assert_eq!(up.next_use_at_or_after(x, 4), None);
    }

    #[test]
    fn unused_register_is_dead_everywhere() {
        let mut b = BlockBuilder::new("t");
        let v = b.fconst("v", 1.0);
        let block = b.finish();
        let up = UsePositions::compute(&block);
        assert!(up.dead_after(v, 0));
    }
}
