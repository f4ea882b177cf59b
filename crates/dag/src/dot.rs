//! Graphviz (DOT) export of code DAGs.

use std::fmt::Write as _;

use bsched_ir::{BasicBlock, InstId};

use crate::dag::{CodeDag, DepKind};

/// Analysis results overlaid on a [`to_dot_annotated`] export.
///
/// The dag crate cannot compute these numbers itself — balanced weights
/// live in `bsched-core` and register pressure in `bsched-analyze`, both
/// downstream of this crate — so callers supply them and this module
/// only renders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DotOverlay {
    /// Extra label line per node (e.g. `w=5/2`).
    pub node_notes: Vec<(InstId, String)>,
    /// Register-pressure heat per node (values live while it issues);
    /// rendered as a red fill scaled to the hottest node.
    pub pressure: Vec<(InstId, u32)>,
    /// Graph-level caption (e.g. `MaxLive: 3 int / 5 float`).
    pub caption: String,
}

/// Renders `dag`, the code DAG of `block`, as a Graphviz `digraph`.
///
/// Nodes are labelled by the block ([`BasicBlock::label`]). Load nodes are drawn as boxes (like the paper's figures), other
/// instructions as ellipses; non-true dependences are dashed and labelled
/// with their kind.
///
/// # Example
///
/// ```
/// use bsched_ir::BlockBuilder;
/// use bsched_dag::{build_dag, to_dot, AliasModel};
///
/// let mut b = BlockBuilder::new("ex");
/// let base = b.def_int("base");
/// let x = b.load("L0", base, 0);
/// let _ = b.fadd("X0", x, x);
/// let block = b.finish();
/// let dot = to_dot(&build_dag(&block, AliasModel::Fortran), &block, "ex");
/// assert!(dot.contains("digraph"));
/// assert!(dot.contains("L0"));
/// ```
#[must_use]
pub fn to_dot(dag: &CodeDag, block: &BasicBlock, title: &str) -> String {
    to_dot_annotated(dag, block, title, &DotOverlay::default())
}

/// Like [`to_dot`], with analysis results from `overlay` drawn on top:
/// per-node label lines, a pressure heat fill, and a graph caption. An
/// empty overlay renders exactly what [`to_dot`] does.
#[must_use]
pub fn to_dot_annotated(
    dag: &CodeDag,
    block: &BasicBlock,
    title: &str,
    overlay: &DotOverlay,
) -> String {
    let note_of = |id: InstId| {
        overlay
            .node_notes
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, n)| n.as_str())
    };
    let pressure_of = |id: InstId| {
        overlay
            .pressure
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, p)| *p)
    };
    let peak = overlay.pressure.iter().map(|(_, p)| *p).max().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{title}\" {{");
    let _ = writeln!(out, "  rankdir=TB;");
    if !overlay.caption.is_empty() {
        let _ = writeln!(out, "  label=\"{}\"; labelloc=b;", overlay.caption);
    }
    for id in dag.node_ids() {
        let shape = if dag.is_load(id) { "box" } else { "ellipse" };
        let mut label = block.label(id).into_owned();
        if let Some(note) = note_of(id) {
            label.push_str("\\n");
            label.push_str(note);
        }
        let fill = match pressure_of(id) {
            Some(p) if peak > 0 => {
                // Saturation grows with pressure so the hottest nodes
                // read as the reddest; value stays 1.0 for legibility.
                let sat = 0.15 + 0.55 * f64::from(p) / f64::from(peak);
                format!(", style=filled, fillcolor=\"0.0 {sat:.2} 1.0\"")
            }
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{label}\", shape={shape}{fill}];",
            id.raw()
        );
    }
    for e in dag.edges() {
        let style = match e.kind {
            DepKind::True => String::new(),
            other => format!(" [style=dashed, label=\"{other}\"]"),
        };
        let _ = writeln!(out, "  n{} -> n{}{};", e.from.raw(), e.to.raw(), style);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_dag, AliasModel};
    use bsched_ir::BlockBuilder;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut b = BlockBuilder::new("t");
        let base = b.def_int("base");
        let x = b.load("L0", base, 0);
        let _ = b.fadd("X0", x, x);
        let block = b.finish();
        let dag = build_dag(&block, AliasModel::Fortran);
        let dot = to_dot(&dag, &block, "t");
        assert!(dot.starts_with("digraph \"t\""));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("n1 -> n2"));
        assert!(dot.contains("shape=box"), "loads are boxes");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn annotated_overlay_draws_notes_fill_and_caption() {
        let mut b = BlockBuilder::new("t");
        let base = b.def_int("base");
        let x = b.load("L0", base, 0);
        let _ = b.fadd("X0", x, x);
        let block = b.finish();
        let dag = build_dag(&block, AliasModel::Fortran);
        let overlay = DotOverlay {
            node_notes: vec![(InstId::new(1), "w=5/2".to_owned())],
            pressure: vec![(InstId::new(1), 1), (InstId::new(2), 2)],
            caption: "MaxLive: 2 float".to_owned(),
        };
        let dot = to_dot_annotated(&dag, &block, "t", &overlay);
        assert!(dot.contains("L0\\nw=5/2"), "{dot}");
        assert!(dot.contains("style=filled"), "{dot}");
        assert!(
            dot.contains("fillcolor=\"0.0 0.70 1.0\""),
            "hottest node: {dot}"
        );
        assert!(
            dot.contains("label=\"MaxLive: 2 float\"; labelloc=b;"),
            "{dot}"
        );
        // Unannotated nodes stay plain.
        assert!(dot.contains("n0 [label=\"base\", shape=ellipse];"), "{dot}");
    }

    #[test]
    fn empty_overlay_matches_plain_export() {
        let mut b = BlockBuilder::new("t");
        let base = b.def_int("base");
        let x = b.load("L0", base, 0);
        let _ = b.fadd("X0", x, x);
        let block = b.finish();
        let dag = build_dag(&block, AliasModel::Fortran);
        assert_eq!(
            to_dot(&dag, &block, "t"),
            to_dot_annotated(&dag, &block, "t", &DotOverlay::default())
        );
    }

    #[test]
    fn non_true_edges_are_dashed() {
        let mut b = BlockBuilder::new("t");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let v = b.fconst("v", 0.0);
        b.store_region(region, v, base, Some(0));
        let _ = b.load_region("l", region, base, Some(0));
        let block = b.finish();
        let dag = build_dag(&block, AliasModel::Fortran);
        let dot = to_dot(&dag, &block, "t");
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("memory"));
    }
}
