//! Mutation testing for the PL050 rewrite translation validator: seed
//! targeted miscompile classes into real rewrite audit logs and final
//! DAGs (swapped mmchain operands, dropped dot-product terms, forged
//! copy targets, tampered snapshots, forged folds, impure CSE merges,
//! inverted branch decisions, ...) and assert the validators flag them
//! *independently* — block-level mutants go straight through
//! [`validate_block_rewrites`] against the real pre/post DAGs, so the
//! engine-replay reproducibility check can never mask a weak rule.
//! Sites are enumerated deterministically — no randomness — so a change
//! in catch rate is a change in the rules, not in the dice.
//!
//! The harness asserts (a) every baseline fixture lints clean, and
//! (b) the overall catch rate across all mutation classes is ≥ 95%,
//! printing every missed mutant so a gap is documented rather than
//! silent.

use reml_cluster::ClusterConfig;
use reml_compiler::build::{FoldKind, FoldRecord};
use reml_compiler::hop::CseHit;
use reml_compiler::pipeline::{analyze_program, compile, AnalyzedProgram, CompiledProgram};
use reml_compiler::rewrites::RewriteRule;
use reml_compiler::{CompileConfig, HopId, HopOp};
use reml_lang::blocks::find_block;
use reml_lang::BlockId;
use reml_matrix::UnaryOp;
use reml_planlint::{
    lint_compiled, rebuild_block_dag_staged, validate_block_rewrites, validate_program_rewrites,
    StagedRebuild,
};
use reml_runtime::ScalarValue;

struct Fixture {
    name: &'static str,
    analyzed: AnalyzedProgram,
    cfg: CompileConfig,
    compiled: CompiledProgram,
    /// `(block id, staged rebuild)` for every audited generic block.
    blocks: Vec<(usize, StagedRebuild)>,
}

fn fixture(name: &'static str, source: &str) -> Fixture {
    let analyzed = analyze_program(source).unwrap_or_else(|e| panic!("{name} analyzes: {e}"));
    let cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    let compiled = compile(&analyzed, &cfg).unwrap_or_else(|e| panic!("{name} compiles: {e}"));
    let baseline = lint_compiled(&analyzed, &compiled, &cfg);
    assert!(
        baseline.is_empty(),
        "{name}: baseline must lint clean:\n{}",
        baseline.render()
    );
    let mut blocks = Vec::new();
    for &bid in compiled.rewrite_audit.blocks.keys() {
        let entry = compiled.entry_envs.get(&bid).expect("entry env recorded");
        let block = find_block(&analyzed.blocks, BlockId(bid)).expect("block exists");
        let staged = rebuild_block_dag_staged(&cfg, block, entry).expect("staged rebuild");
        blocks.push((bid, staged));
    }
    Fixture {
        name,
        analyzed,
        cfg,
        compiled,
        blocks,
    }
}

fn fixtures() -> Vec<Fixture> {
    vec![
        fixture(
            "dotprod",
            "v = seq(1, 9)\n\
             w = seq(2, 10)\n\
             print(\"s=\" + sum(v * w))\n\
             print(\"q=\" + sum(v * v))\n",
        ),
        fixture(
            "mmchain",
            "X = seq(1, 6) %*% t(seq(1, 4))\n\
             v = seq(3, 6)\n\
             g = t(X) %*% (X %*% v)\n\
             print(\"g=\" + sum(g))\n",
        ),
        fixture(
            "copies",
            "A = matrix(2.5, rows=3, cols=4)\n\
             B = t(t(A))\n\
             C = A * 1\n\
             D = 1 * A\n\
             E = A / 1\n\
             F = B + C + D + E\n\
             print(\"f=\" + sum(F))\n",
        ),
        fixture(
            "branchy",
            "k = 4\n\
             if (k > 2) {\n\
               A = matrix(1, rows=3, cols=3)\n\
               print(\"t=\" + sum(A))\n\
             } else {\n\
               print(\"f\")\n\
             }\n\
             m = 1\n\
             if (m > 5) {\n\
               print(\"big\")\n\
             } else {\n\
               print(\"small\")\n\
             }\n",
        ),
        fixture(
            "combined",
            "X = seq(1, 8) %*% t(seq(1, 5))\n\
             v = seq(2, 6)\n\
             w = seq(1, 5)\n\
             A = matrix(0.5, rows=5, cols=5)\n\
             acc = 0\n\
             i = 0\n\
             while (i < 3) {\n\
               g = t(X) %*% (X %*% v)\n\
               acc = acc + sum(g) + sum(v * w)\n\
               i = i + 1\n\
             }\n\
             B = t(t(A)) + A * 1\n\
             print(\"acc=\" + acc)\n\
             print(\"b=\" + sum(B))\n",
        ),
    ]
}

/// Accumulates per-class results and the miss list.
#[derive(Default)]
struct Tally {
    results: Vec<(String, usize, usize)>,
    misses: Vec<String>,
    total: usize,
    caught: usize,
}

impl Tally {
    fn class(&mut self, label: String, outcomes: Vec<(String, bool)>) {
        if outcomes.is_empty() {
            return;
        }
        let n = outcomes.len();
        let mut c = 0;
        for (site, caught) in outcomes {
            self.total += 1;
            if caught {
                self.caught += 1;
                c += 1;
            } else {
                self.misses.push(format!("{label} / {site}"));
            }
        }
        self.results.push((label, c, n));
    }
}

/// Run the block-level validators on a (possibly mutated) audit + DAG.
fn block_catches(
    staged: &StagedRebuild,
    post: &reml_compiler::HopDag,
    audit: &reml_compiler::pipeline::BlockAudit,
) -> bool {
    !validate_block_rewrites(&staged.pre, post, audit, "block").is_empty()
}

#[test]
fn validator_catches_seeded_miscompiles() {
    let fixtures = fixtures();
    assert!(
        fixtures
            .iter()
            .any(|f| f.compiled.rewrite_audit.num_rewrites() > 0),
        "no fixture produced rewrites"
    );
    assert!(
        !fixtures
            .iter()
            .flat_map(|f| &f.compiled.rewrite_audit.branches)
            .collect::<Vec<_>>()
            .is_empty(),
        "no fixture produced removed branches"
    );

    let mut tally = Tally::default();

    for fx in &fixtures {
        for (bid, staged) in &fx.blocks {
            let stored = &fx.compiled.rewrite_audit.blocks[bid];

            // --- wrong-rule-id: relabel each record with another rule.
            let mut outcomes = Vec::new();
            for (i, rec) in stored.records.iter().enumerate() {
                let forged = match rec.rule {
                    RewriteRule::DotProduct => RewriteRule::DoubleTranspose,
                    RewriteRule::MmChain => RewriteRule::DotProduct,
                    RewriteRule::DoubleTranspose => RewriteRule::IdentityElim,
                    RewriteRule::IdentityElim => RewriteRule::MmChain,
                };
                let mut audit = stored.clone();
                audit.records[i].rule = forged;
                outcomes.push((
                    format!("rewrite {i}"),
                    block_catches(staged, &staged.post, &audit),
                ));
            }
            tally.class(format!("{}/b{bid}/wrong-rule-id", fx.name), outcomes);

            // --- swapped-chain-operands: MmChain(X, v) -> MmChain(v, X)
            // in both the final DAG and the after-snapshot, so only the
            // semantic/obligation rules can object.
            let mut outcomes = Vec::new();
            for (i, rec) in stored.records.iter().enumerate() {
                if rec.rule != RewriteRule::MmChain {
                    continue;
                }
                let mut post = staged.post.clone();
                post.hops[rec.root.0].inputs.swap(0, 1);
                let mut audit = stored.clone();
                for (id, h) in &mut audit.records[i].after {
                    if *id == rec.root {
                        h.inputs.swap(0, 1);
                    }
                }
                outcomes.push((format!("rewrite {i}"), block_catches(staged, &post, &audit)));
            }
            tally.class(
                format!("{}/b{bid}/swapped-chain-operands", fx.name),
                outcomes,
            );

            // --- dot-product-dropped-term: rebind the matmult's vector
            // operand to the *other* vector, turning t(v) %*% w into
            // t(v) %*% v (DAG and snapshot kept consistent).
            let mut outcomes = Vec::new();
            for (i, rec) in stored.records.iter().enumerate() {
                if rec.rule != RewriteRule::DotProduct {
                    continue;
                }
                let Some(&mm) = rec
                    .new_nodes
                    .iter()
                    .find(|id| matches!(staged.post.hop(**id).op, HopOp::MatMult))
                else {
                    continue;
                };
                let Some((_, a_id)) = rec.bindings.iter().find(|(n, _)| *n == "v") else {
                    continue;
                };
                if staged.post.hop(mm).inputs[1] == *a_id {
                    // sum(v * v): both bindings are the same node, so the
                    // "mutation" would reproduce the original program.
                    continue;
                }
                let mut post = staged.post.clone();
                post.hops[mm.0].inputs[1] = *a_id;
                let mut audit = stored.clone();
                for (id, h) in &mut audit.records[i].after {
                    if *id == mm {
                        h.inputs[1] = *a_id;
                    }
                }
                outcomes.push((format!("rewrite {i}"), block_catches(staged, &post, &audit)));
            }
            tally.class(
                format!("{}/b{bid}/dot-product-dropped-term", fx.name),
                outcomes,
            );

            // --- copy-of-wrong-value: a copy rewrite whose root copies
            // the wrong node — the inner transpose for DoubleTranspose,
            // the literal for IdentityElim.
            let mut outcomes = Vec::new();
            for (i, rec) in stored.records.iter().enumerate() {
                let wrong = match rec.rule {
                    RewriteRule::DoubleTranspose => rec
                        .before
                        .iter()
                        .find(|(id, h)| *id != rec.root && matches!(h.op, HopOp::Transpose))
                        .map(|(_, h)| h.clone()),
                    RewriteRule::IdentityElim => rec
                        .before
                        .iter()
                        .find(|(_, h)| matches!(h.op, HopOp::LitNum(_)))
                        .map(|(_, h)| h.clone()),
                    _ => None,
                };
                let Some(wrong) = wrong else { continue };
                let mut post = staged.post.clone();
                post.hops[rec.root.0] = wrong.clone();
                let mut audit = stored.clone();
                for (id, h) in &mut audit.records[i].after {
                    if *id == rec.root {
                        *h = wrong.clone();
                    }
                }
                outcomes.push((format!("rewrite {i}"), block_catches(staged, &post, &audit)));
            }
            tally.class(format!("{}/b{bid}/copy-of-wrong-value", fx.name), outcomes);

            // --- identity-on-two: forge the recorded literal to 2.0 —
            // the record now claims X * 2 simplifies to X.
            let mut outcomes = Vec::new();
            for (i, rec) in stored.records.iter().enumerate() {
                if rec.rule != RewriteRule::IdentityElim {
                    continue;
                }
                let mut audit = stored.clone();
                let mut found = false;
                for (_, h) in &mut audit.records[i].before {
                    if matches!(h.op, HopOp::LitNum(_)) {
                        h.op = HopOp::LitNum(2.0);
                        found = true;
                    }
                }
                if !found {
                    continue;
                }
                outcomes.push((
                    format!("rewrite {i}"),
                    block_catches(staged, &staged.post, &audit),
                ));
            }
            tally.class(format!("{}/b{bid}/identity-on-two", fx.name), outcomes);

            // --- tampered-binding-snapshot: grow a boundary input's
            // recorded row count by one.
            let mut outcomes = Vec::new();
            for (i, rec) in stored.records.iter().enumerate() {
                let Some((_, bid0)) = rec.bindings.first() else {
                    continue;
                };
                let mut audit = stored.clone();
                let mut found = false;
                for (id, h) in &mut audit.records[i].before {
                    if id == bid0 {
                        if let Some(r) = h.mc.rows {
                            h.mc.rows = Some(r + 1);
                            found = true;
                        }
                    }
                }
                if !found {
                    continue;
                }
                outcomes.push((
                    format!("rewrite {i}"),
                    block_catches(staged, &staged.post, &audit),
                ));
            }
            tally.class(
                format!("{}/b{bid}/tampered-binding-snapshot", fx.name),
                outcomes,
            );

            // --- forged-root-dims: the rewritten root claims one extra
            // column (DAG and snapshot kept consistent).
            let mut outcomes = Vec::new();
            for (i, rec) in stored.records.iter().enumerate() {
                let Some(c) = staged.post.hop(rec.root).mc.cols else {
                    continue;
                };
                let mut post = staged.post.clone();
                post.hops[rec.root.0].mc.cols = Some(c + 1);
                let mut audit = stored.clone();
                for (id, h) in &mut audit.records[i].after {
                    if *id == rec.root {
                        h.mc.cols = Some(c + 1);
                    }
                }
                outcomes.push((format!("rewrite {i}"), block_catches(staged, &post, &audit)));
            }
            tally.class(format!("{}/b{bid}/forged-root-dims", fx.name), outcomes);

            // --- phantom-new-node: claim the root itself was appended.
            let mut outcomes = Vec::new();
            for (i, rec) in stored.records.iter().enumerate() {
                let mut audit = stored.clone();
                audit.records[i].new_nodes.push(rec.root);
                outcomes.push((
                    format!("rewrite {i}"),
                    block_catches(staged, &staged.post, &audit),
                ));
            }
            tally.class(format!("{}/b{bid}/phantom-new-node", fx.name), outcomes);

            // --- forged-fold-result: every fold's claimed result nudged.
            let mut outcomes = Vec::new();
            for (j, fold) in stored.folds.iter().enumerate() {
                let forged = match &fold.result {
                    ScalarValue::Num(n) => ScalarValue::Num(n + 1.0),
                    ScalarValue::Bool(b) => ScalarValue::Bool(!b),
                    ScalarValue::Str(s) => ScalarValue::Str(format!("{s}x")),
                };
                let mut audit = stored.clone();
                audit.folds[j].result = forged;
                outcomes.push((
                    format!("fold {j}"),
                    block_catches(staged, &staged.post, &audit),
                ));
            }
            tally.class(format!("{}/b{bid}/forged-fold-result", fx.name), outcomes);

            // --- forged-fold-kind: relabel a unary fold with a different
            // operator; sites where both operators agree on the recorded
            // operand are skipped (such a forgery is not a miscompile).
            let mut outcomes = Vec::new();
            for (j, fold) in stored.folds.iter().enumerate() {
                let FoldKind::Unary(op) = fold.kind else {
                    continue;
                };
                let Some(v) = fold.operands.first().and_then(|v| v.as_f64()) else {
                    continue;
                };
                let Some(forged) = [UnaryOp::Neg, UnaryOp::Abs, UnaryOp::Exp, UnaryOp::Round]
                    .into_iter()
                    .find(|o| *o != op && o.apply(v).to_bits() != op.apply(v).to_bits())
                else {
                    continue;
                };
                let mut audit = stored.clone();
                audit.folds[j].kind = FoldKind::Unary(forged);
                outcomes.push((
                    format!("fold {j}"),
                    block_catches(staged, &staged.post, &audit),
                ));
            }
            tally.class(format!("{}/b{bid}/forged-fold-kind", fx.name), outcomes);

            // --- forged-print-cse: claim two print effects were merged.
            let mut audit = stored.clone();
            audit.cse.push(CseHit {
                key: "Print".to_string(),
                inputs: Vec::new(),
                merged_into: HopId(0),
            });
            tally.class(
                format!("{}/b{bid}/forged-print-cse", fx.name),
                vec![(
                    "cse".to_string(),
                    block_catches(staged, &staged.post, &audit),
                )],
            );

            // --- forged-rand-cse: claim two rand() calls were merged.
            let mut audit = stored.clone();
            audit.cse.push(CseHit {
                key: "DataGenRand".to_string(),
                inputs: Vec::new(),
                merged_into: HopId(0),
            });
            tally.class(
                format!("{}/b{bid}/forged-rand-cse", fx.name),
                vec![(
                    "cse".to_string(),
                    block_catches(staged, &staged.post, &audit),
                )],
            );

            // --- forged-fake-fold: invent a fold that never happened,
            // claiming 2 + 2 = 5.
            let mut audit = stored.clone();
            audit.folds.push(FoldRecord {
                kind: FoldKind::Binary(reml_matrix::BinaryOp::Add),
                operands: vec![ScalarValue::Num(2.0), ScalarValue::Num(2.0)],
                result: ScalarValue::Num(5.0),
            });
            tally.class(
                format!("{}/b{bid}/forged-fake-fold", fx.name),
                vec![(
                    "fold".to_string(),
                    block_catches(staged, &staged.post, &audit),
                )],
            );
        }

        // --- dropped-record: the audit omits an applied rewrite; the
        // full pipeline entry point must notice the incompleteness.
        let mut outcomes = Vec::new();
        for (&bid, stored) in &fx.compiled.rewrite_audit.blocks {
            for i in 0..stored.records.len() {
                let mut compiled = fx.compiled.clone();
                compiled
                    .rewrite_audit
                    .blocks
                    .get_mut(&bid)
                    .unwrap()
                    .records
                    .remove(i);
                let caught = !lint_compiled(&fx.analyzed, &compiled, &fx.cfg).is_empty();
                outcomes.push((format!("b{bid} rewrite {i}"), caught));
            }
        }
        tally.class(format!("{}/dropped-record", fx.name), outcomes);

        // --- forged-rewrite-count: stats disagree with the audit.
        if fx.compiled.rewrite_audit.num_rewrites() > 0 || fx.compiled.stats.rewrites_applied > 0 {
            let mut compiled = fx.compiled.clone();
            compiled.stats.rewrites_applied += 1;
            let caught = !validate_program_rewrites(&fx.analyzed, &compiled, &fx.cfg).is_empty();
            tally.class(
                format!("{}/forged-rewrite-count", fx.name),
                vec![("stats".to_string(), caught)],
            );
        }

        // --- inverted-branch: the audit claims the other arm was taken.
        let mut outcomes = Vec::new();
        for j in 0..fx.compiled.rewrite_audit.branches.len() {
            let mut compiled = fx.compiled.clone();
            compiled.rewrite_audit.branches[j].taken = !compiled.rewrite_audit.branches[j].taken;
            let caught = !validate_program_rewrites(&fx.analyzed, &compiled, &fx.cfg).is_empty();
            outcomes.push((format!("branch {j}"), caught));
        }
        tally.class(format!("{}/inverted-branch", fx.name), outcomes);

        // --- branch-env-scrubbed: the recorded environment loses every
        // known constant, so the guard can no longer be re-proven.
        let mut outcomes = Vec::new();
        for j in 0..fx.compiled.rewrite_audit.branches.len() {
            let mut compiled = fx.compiled.clone();
            for info in compiled.rewrite_audit.branches[j].env.values_mut() {
                info.konst = None;
            }
            let caught = !validate_program_rewrites(&fx.analyzed, &compiled, &fx.cfg).is_empty();
            outcomes.push((format!("branch {j}"), caught));
        }
        tally.class(format!("{}/branch-env-scrubbed", fx.name), outcomes);

        // --- branch-wrong-block: the record points at a block that is
        // not an if (or does not exist).
        let mut outcomes = Vec::new();
        for j in 0..fx.compiled.rewrite_audit.branches.len() {
            let mut compiled = fx.compiled.clone();
            compiled.rewrite_audit.branches[j].block_id = 99_999;
            let caught = !validate_program_rewrites(&fx.analyzed, &compiled, &fx.cfg).is_empty();
            outcomes.push((format!("branch {j}"), caught));
        }
        tally.class(format!("{}/branch-wrong-block", fx.name), outcomes);
    }

    println!("mutation classes:");
    for (label, c, n) in &tally.results {
        println!("  {label}: {c}/{n}");
    }
    if !tally.misses.is_empty() {
        println!("missed mutants ({}):", tally.misses.len());
        for m in &tally.misses {
            println!("  {m}");
        }
    }
    let rate = tally.caught as f64 / tally.total as f64;
    println!(
        "catch rate: {}/{} = {:.1}%",
        tally.caught,
        tally.total,
        rate * 100.0
    );
    assert!(
        rate >= 0.95,
        "catch rate {:.1}% below the 95% gate; misses:\n{}",
        rate * 100.0,
        tally.misses.join("\n")
    );
}
