//! Criterion micro-benchmarks for the lower layers: DSL program evaluation,
//! transformation-graph construction and candidate generation.

use criterion::{criterion_group, criterion_main, Criterion};
use ec_data::{GeneratorConfig, PaperDataset};
use ec_dsl::{Dir, PositionFn, Program, StrCtx, StringFn, Term};
use ec_graph::{GraphBuilder, GraphConfig, LabelInterner, Replacement};
use ec_replace::{generate_candidates, lcs_token_pairs, CandidateConfig};

fn bench_dsl(c: &mut Criterion) {
    let program = Program::new(vec![
        StringFn::sub_str(
            PositionFn::match_pos(Term::Whitespace, 1, Dir::End),
            PositionFn::match_pos(Term::Upper, -1, Dir::End),
        ),
        StringFn::constant(". "),
        StringFn::sub_str(
            PositionFn::match_pos(Term::Upper, 1, Dir::Begin),
            PositionFn::match_pos(Term::Lower, 1, Dir::End),
        ),
    ]);
    c.bench_function("dsl_program_eval", |b| {
        b.iter(|| {
            let ctx = StrCtx::new("Stonebraker, Michael");
            program.eval(&ctx)
        });
    });
    c.bench_function("dsl_consistency_check", |b| {
        b.iter(|| {
            let ctx = StrCtx::new("Stonebraker, Michael");
            program.consistent_with(&ctx, "M. Stonebraker")
        });
    });
}

fn bench_graph_build(c: &mut Criterion) {
    let mut builder = GraphBuilder::new(GraphConfig::default());
    let replacement = Replacement::new("3rd E Avenue, 33990 California", "3 E Ave, 33990 CA");
    c.bench_function("graph_build_address_pair", |b| {
        b.iter(|| {
            let mut interner = LabelInterner::new();
            builder.build(&replacement, &mut interner)
        });
    });
}

fn bench_candidates(c: &mut Criterion) {
    let dataset = PaperDataset::Address.generate(&GeneratorConfig {
        num_clusters: 50,
        seed: 9,
        num_sources: 4,
    });
    let column = dataset.column_values(0);
    c.bench_function("candidate_generation_address_50", |b| {
        b.iter(|| generate_candidates(&column, &CandidateConfig::default()).len());
    });
    c.bench_function("lcs_token_alignment", |b| {
        b.iter(|| lcs_token_pairs("9 St, 02141 Wisconsin", "9th Street, 02141 WI"));
    });
}

criterion_group!(benches, bench_dsl, bench_graph_build, bench_candidates);
criterion_main!(benches);
