//! Statement-block hierarchy and live-variable analysis.
//!
//! SystemML compiles a DML script "into a hierarchy of program blocks as
//! defined by the control structure" (§2.1): maximal runs of straight-line
//! statements become *generic* blocks; each `if`/`while`/`for` becomes its
//! own block with nested child blocks. The resource optimizer's pruning,
//! the per-block MR resource vector (r¹..rⁿ of §2.3), and runtime
//! migration's live-variable stack all operate at this granularity.

use std::collections::BTreeSet;

use crate::ast::{Expr, IndexRange, Program, Statement};

/// Identifier of a statement block, assigned in depth-first pre-order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

/// The role of a statement block in the hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementBlockKind {
    /// A maximal run of straight-line statements.
    Generic {
        /// The statements, in source order.
        statements: Vec<Statement>,
    },
    /// An `if` block with nested branch hierarchies.
    If {
        /// Branch predicate.
        pred: Expr,
        /// Then-branch child blocks.
        then_blocks: Vec<StatementBlock>,
        /// Else-branch child blocks.
        else_blocks: Vec<StatementBlock>,
    },
    /// A `while` block with a nested body hierarchy.
    While {
        /// Loop predicate.
        pred: Expr,
        /// Body child blocks.
        body: Vec<StatementBlock>,
    },
    /// A `for` block with a nested body hierarchy.
    For {
        /// Loop variable name.
        var: String,
        /// Range start.
        from: Expr,
        /// Range end.
        to: Expr,
        /// Body child blocks.
        body: Vec<StatementBlock>,
    },
}

/// One node of the statement-block hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct StatementBlock {
    /// Depth-first pre-order id.
    pub id: BlockId,
    /// Block payload.
    pub kind: StatementBlockKind,
    /// Source lines spanned `(first, last)`.
    pub lines: (usize, usize),
    /// Variables this block reads from enclosing scope (live-in uses).
    pub reads: BTreeSet<String>,
    /// Variables this block assigns.
    pub updates: BTreeSet<String>,
}

impl StatementBlock {
    /// Whether this is a last-level (generic) block — the granularity of
    /// dynamic recompilation.
    pub fn is_generic(&self) -> bool {
        matches!(self.kind, StatementBlockKind::Generic { .. })
    }

    /// Child blocks in pre-order (`then` before `else`; none for generic
    /// blocks).
    pub fn children(&self) -> impl Iterator<Item = &StatementBlock> {
        let (first, second): (&[StatementBlock], &[StatementBlock]) = match &self.kind {
            StatementBlockKind::Generic { .. } => (&[], &[]),
            StatementBlockKind::If {
                then_blocks,
                else_blocks,
                ..
            } => (then_blocks, else_blocks),
            StatementBlockKind::While { body, .. } | StatementBlockKind::For { body, .. } => {
                (body, &[])
            }
        };
        first.iter().chain(second)
    }

    /// Total number of blocks in this subtree (this block + descendants).
    pub fn count_blocks(&self) -> usize {
        1 + self
            .children()
            .map(StatementBlock::count_blocks)
            .sum::<usize>()
    }
}

/// Build the statement-block hierarchy for the main scope of a program.
pub fn build_blocks(program: &Program) -> Vec<StatementBlock> {
    let mut next_id = 0usize;
    build_block_list(&program.statements, &mut next_id)
}

/// Count all blocks in a hierarchy (the paper's `#Blocks`, Table 1).
pub fn count_all_blocks(blocks: &[StatementBlock]) -> usize {
    blocks.iter().map(StatementBlock::count_blocks).sum()
}

/// Find a block by id anywhere in a hierarchy (`&[StatementBlock]`, one
/// block's `children()`, or any other list of blocks).
pub fn find_block<'a>(
    blocks: impl IntoIterator<Item = &'a StatementBlock>,
    id: BlockId,
) -> Option<&'a StatementBlock> {
    blocks.into_iter().find_map(|b| {
        if b.id == id {
            Some(b)
        } else {
            find_block(b.children(), id)
        }
    })
}

/// Union of the variables any of the given blocks (or their nested
/// children) may assign. Static analyses use this to bound the set of
/// variables a loop body can change: everything else passes through a
/// loop iteration unmodified.
pub fn assigned_vars<'a>(blocks: impl IntoIterator<Item = &'a StatementBlock>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for block in blocks {
        // `updates` already aggregates the child blocks (see `analyze`),
        // so one level is enough.
        out.extend(block.updates.iter().cloned());
    }
    out
}

fn build_block_list(statements: &[Statement], next_id: &mut usize) -> Vec<StatementBlock> {
    let mut blocks = Vec::new();
    let mut run: Vec<Statement> = Vec::new();
    for stmt in statements {
        match stmt {
            Statement::If {
                pred,
                then_branch,
                else_branch,
                line,
            } => {
                flush_run(&mut run, &mut blocks, next_id);
                let id = alloc(next_id);
                let then_blocks = build_block_list(then_branch, next_id);
                let else_blocks = build_block_list(else_branch, next_id);
                let mut block = StatementBlock {
                    id,
                    kind: StatementBlockKind::If {
                        pred: pred.clone(),
                        then_blocks,
                        else_blocks,
                    },
                    lines: (*line, *line),
                    reads: BTreeSet::new(),
                    updates: BTreeSet::new(),
                };
                analyze(&mut block);
                blocks.push(block);
            }
            Statement::While { pred, body, line } => {
                flush_run(&mut run, &mut blocks, next_id);
                let id = alloc(next_id);
                let body_blocks = build_block_list(body, next_id);
                let mut block = StatementBlock {
                    id,
                    kind: StatementBlockKind::While {
                        pred: pred.clone(),
                        body: body_blocks,
                    },
                    lines: (*line, *line),
                    reads: BTreeSet::new(),
                    updates: BTreeSet::new(),
                };
                analyze(&mut block);
                blocks.push(block);
            }
            Statement::For {
                var,
                from,
                to,
                body,
                line,
            } => {
                flush_run(&mut run, &mut blocks, next_id);
                let id = alloc(next_id);
                let body_blocks = build_block_list(body, next_id);
                let mut block = StatementBlock {
                    id,
                    kind: StatementBlockKind::For {
                        var: var.clone(),
                        from: from.clone(),
                        to: to.clone(),
                        body: body_blocks,
                    },
                    lines: (*line, *line),
                    reads: BTreeSet::new(),
                    updates: BTreeSet::new(),
                };
                analyze(&mut block);
                blocks.push(block);
            }
            simple => run.push(simple.clone()),
        }
    }
    flush_run(&mut run, &mut blocks, next_id);
    blocks
}

fn alloc(next_id: &mut usize) -> BlockId {
    let id = BlockId(*next_id);
    *next_id += 1;
    id
}

fn flush_run(run: &mut Vec<Statement>, blocks: &mut Vec<StatementBlock>, next_id: &mut usize) {
    if run.is_empty() {
        return;
    }
    let statements = std::mem::take(run);
    let first = statements.first().map_or(0, Statement::line);
    let last = statements.last().map_or(first, Statement::line);
    let id = alloc(next_id);
    let mut block = StatementBlock {
        id,
        kind: StatementBlockKind::Generic { statements },
        lines: (first, last),
        reads: BTreeSet::new(),
        updates: BTreeSet::new(),
    };
    analyze(&mut block);
    blocks.push(block);
}

/// Compute the read/update sets of a block.
fn analyze(block: &mut StatementBlock) {
    let mut reads = BTreeSet::new();
    let mut updates = BTreeSet::new();
    match &block.kind {
        StatementBlockKind::Generic { statements } => {
            // Reads are uses of variables not yet assigned within the block.
            let mut local_defs: BTreeSet<String> = BTreeSet::new();
            for stmt in statements {
                statement_reads(stmt, &local_defs, &mut reads);
                statement_updates(stmt, &mut local_defs);
            }
            updates = local_defs;
        }
        StatementBlockKind::If {
            pred,
            then_blocks,
            else_blocks,
        } => {
            pred.collect_reads(&mut reads);
            for child in then_blocks.iter().chain(else_blocks.iter()) {
                // Conservative: child reads not locally satisfied flow up.
                reads.extend(child.reads.iter().cloned());
                updates.extend(child.updates.iter().cloned());
            }
        }
        StatementBlockKind::While { pred, body } => {
            pred.collect_reads(&mut reads);
            for child in body {
                reads.extend(child.reads.iter().cloned());
                updates.extend(child.updates.iter().cloned());
            }
        }
        StatementBlockKind::For {
            var,
            from,
            to,
            body,
        } => {
            from.collect_reads(&mut reads);
            to.collect_reads(&mut reads);
            for child in body {
                reads.extend(child.reads.iter().cloned());
                updates.extend(child.updates.iter().cloned());
            }
            reads.remove(var);
            updates.insert(var.clone());
        }
    }
    block.reads = reads;
    block.updates = updates;
}

fn statement_reads(stmt: &Statement, local_defs: &BTreeSet<String>, out: &mut BTreeSet<String>) {
    let mut uses = BTreeSet::new();
    match stmt {
        Statement::Assign {
            index,
            expr,
            target,
            ..
        } => {
            expr.collect_reads(&mut uses);
            if let Some((rows, cols)) = index {
                // Left-indexing reads the previous value of the target.
                uses.insert(target.clone());
                range_reads(rows, &mut uses);
                range_reads(cols, &mut uses);
            }
        }
        Statement::MultiAssign { expr, .. } | Statement::ExprStmt { expr, .. } => {
            expr.collect_reads(&mut uses)
        }
        Statement::If { .. } | Statement::While { .. } | Statement::For { .. } => {
            unreachable!("control flow statements are never inside generic blocks")
        }
    }
    for name in uses {
        if !local_defs.contains(&name) {
            out.insert(name);
        }
    }
}

fn statement_updates(stmt: &Statement, defs: &mut BTreeSet<String>) {
    match stmt {
        Statement::Assign { target, .. } => {
            defs.insert(target.clone());
        }
        Statement::MultiAssign { targets, .. } => {
            defs.extend(targets.iter().cloned());
        }
        Statement::ExprStmt { .. } => {}
        Statement::If { .. } | Statement::While { .. } | Statement::For { .. } => {
            unreachable!("control flow statements are never inside generic blocks")
        }
    }
}

fn range_reads(range: &IndexRange, out: &mut BTreeSet<String>) {
    match range {
        IndexRange::All => {}
        IndexRange::Single(e) => e.collect_reads(out),
        IndexRange::Range(lo, hi) => {
            if let Some(e) = lo {
                e.collect_reads(out);
            }
            if let Some(e) = hi {
                e.collect_reads(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn blocks_of(src: &str) -> Vec<StatementBlock> {
        build_blocks(&parse(src).unwrap())
    }

    #[test]
    fn straight_line_is_one_block() {
        let b = blocks_of("a = 1\nb = a + 1\nc = b * 2");
        assert_eq!(b.len(), 1);
        assert!(b[0].is_generic());
        assert_eq!(count_all_blocks(&b), 1);
    }

    #[test]
    fn control_flow_splits_blocks() {
        let src = "a = 1\nwhile (a < 10) { a = a + 1 }\nb = a";
        let b = blocks_of(src);
        assert_eq!(b.len(), 3);
        assert!(b[0].is_generic());
        assert!(matches!(b[1].kind, StatementBlockKind::While { .. }));
        assert!(b[2].is_generic());
        // while block + nested body block => 4 total.
        assert_eq!(count_all_blocks(&b), 4);
    }

    #[test]
    fn ids_are_preorder() {
        let src = "a = 1\nwhile (a < 10) { a = a + 1 }\nb = a";
        let b = blocks_of(src);
        assert_eq!(b[0].id, BlockId(0));
        assert_eq!(b[1].id, BlockId(1));
        match &b[1].kind {
            StatementBlockKind::While { body, .. } => assert_eq!(body[0].id, BlockId(2)),
            _ => panic!(),
        }
        assert_eq!(b[2].id, BlockId(3));
    }

    #[test]
    fn find_block_reaches_every_nested_block() {
        let src = "a = 1\nif (a > 0) { a = 2 } else { for (i in 1:3) { a = a + i } }\nb = a";
        let b = blocks_of(src);
        let n = count_all_blocks(&b);
        for id in 0..n {
            assert_eq!(find_block(&b, BlockId(id)).map(|f| f.id), Some(BlockId(id)));
        }
        assert!(find_block(&b, BlockId(n)).is_none());
        // The for block sits in the else arm, after the then arm's block.
        let ids: Vec<usize> = b[1].children().map(|c| c.id.0).collect();
        assert_eq!(ids, [2, 3]);
    }

    #[test]
    fn generic_reads_exclude_locally_defined() {
        let b = blocks_of("a = 1\nb = a + c");
        // 'a' defined locally before use; 'c' flows from outside.
        assert!(b[0].reads.contains("c"));
        assert!(!b[0].reads.contains("a"));
        assert!(b[0].updates.contains("a"));
        assert!(b[0].updates.contains("b"));
    }

    #[test]
    fn while_aggregates_child_sets() {
        let src = "while (go & i < n) { x = y + 1; go = FALSE }";
        let b = blocks_of(src);
        let w = &b[0];
        assert!(w.reads.contains("go"));
        assert!(w.reads.contains("i"));
        assert!(w.reads.contains("n"));
        assert!(w.reads.contains("y"));
        assert!(w.updates.contains("x"));
        assert!(w.updates.contains("go"));
    }

    #[test]
    fn for_loop_var_not_a_read() {
        let src = "for (i in 1:n) { s = s + i }";
        let b = blocks_of(src);
        let f = &b[0];
        assert!(!f.reads.contains("i"));
        assert!(f.reads.contains("n"));
        assert!(f.reads.contains("s"));
        assert!(f.updates.contains("i"));
        assert!(f.updates.contains("s"));
    }

    #[test]
    fn if_else_children_counted() {
        let src = "c = 1\nif (c > 0) { a = 1 } else { b = 2 }";
        let b = blocks_of(src);
        assert_eq!(b.len(), 2);
        // generic + if + 2 branch children.
        assert_eq!(count_all_blocks(&b), 4);
    }

    #[test]
    fn left_indexing_reads_target() {
        let src = "X = matrix(0, rows=3, cols=3)\nn = 1";
        let mut src2 = String::from(src);
        src2.push_str("\nwhile (n < 2) { X[n, 1] = 5; n = n + 1 }");
        let b = blocks_of(&src2);
        let w = b.last().unwrap();
        assert!(w.reads.contains("X"), "left-indexed update reads prior X");
        assert!(w.updates.contains("X"));
    }

    #[test]
    fn nested_loops_block_structure() {
        // The paper's L2SVM: while { generic; while { generic; if } ... }.
        let src = r#"
            i = 0
            while (i < 5) {
                a = i * 2
                j = 0
                while (j < 3) {
                    j = j + 1
                    if (j > 2) { j = 99 }
                }
                i = i + 1
            }
        "#;
        let b = blocks_of(src);
        assert_eq!(b.len(), 2);
        let outer = &b[1];
        match &outer.kind {
            StatementBlockKind::While { body, .. } => {
                // generic (a, j); while; generic (i).
                assert_eq!(body.len(), 3);
                match &body[1].kind {
                    StatementBlockKind::While { body: inner, .. } => {
                        assert_eq!(inner.len(), 2); // generic + if
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }
}
