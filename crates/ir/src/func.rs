//! Functions: named collections of basic blocks.

use std::fmt;

use crate::block::BasicBlock;

/// A function is a list of basic blocks with profiled frequencies.
///
/// Control flow between blocks is irrelevant to the paper's experiments —
/// both schedulers are strictly intra-block, and program runtime is the
/// frequency-weighted sum of block runtimes (§4.3) — so no CFG edges are
/// stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    name: String,
    blocks: Vec<BasicBlock>,
}

impl Function {
    /// Creates a function from blocks.
    #[must_use]
    pub fn new(name: impl Into<String>, blocks: Vec<BasicBlock>) -> Self {
        Self {
            name: name.into(),
            blocks,
        }
    }

    /// The function's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The basic blocks.
    #[must_use]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Total static instruction count.
    #[must_use]
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(BasicBlock::len).sum()
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "func {}:", self.name)?;
        for b in &self.blocks {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BlockBuilder;

    fn block(name: &str, loads: usize, freq: f64) -> BasicBlock {
        let mut b = BlockBuilder::new(name);
        b.set_frequency(freq);
        let base = b.def_int("base");
        let region = b.fresh_region();
        for k in 0..loads {
            let _ = b.load_region(&format!("l{k}"), region, base, Some(8 * k as i64));
        }
        b.finish()
    }

    #[test]
    fn counts() {
        let f = Function::new("f", vec![block("a", 2, 10.0), block("b", 3, 1.0)]);
        assert_eq!(f.inst_count(), 3 + 4);
        assert_eq!(f.blocks().len(), 2);
        assert_eq!(f.name(), "f");
    }

    #[test]
    fn display_lists_blocks() {
        let f = Function::new("f", vec![block("a", 1, 1.0)]);
        let s = f.to_string();
        assert!(s.contains("func f:"));
        assert!(s.contains("a (freq 1):"));
    }
}
