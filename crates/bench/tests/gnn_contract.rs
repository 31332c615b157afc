//! Bit-identity contract of the GNN inference path (DESIGN.md, "GNN
//! inference path").
//!
//! Over the Fig. 6 real-benchmark candidates on S4 and SL8 and all four
//! model variants:
//!
//! * the raw head outputs of the tape-free inference path
//!   ([`PtMapGnn::infer`], used by `predict`) equal, bit for bit, those
//!   of the training tape's `forward`;
//! * features, heads and decoded predictions hash to golden digests
//!   captured before the inference path was introduced (dense GAT
//!   attention, per-call `G_hw`, tape-based prediction);
//! * a short fixed-seed training run hashes to its golden digest, so
//!   the fused attention backward and the borrowed-parameter tape train
//!   exactly as before.
//!
//! A golden mismatch means some float changed: an accumulation order,
//! a skipped zero, or a feature. Never update a golden to make this
//! pass without first proving the change is intended.

use ptmap_arch::presets;
use ptmap_bench::fig6::real_benchmark_samples;
use ptmap_gnn::autograd::Graph;
use ptmap_gnn::dataset::Sample;
use ptmap_gnn::{train, GnnVariant, Matrix, ModelConfig, PtMapGnn, TrainConfig};
use ptmap_pipeline::hash::{hex, sha256};

const FEATURES_S4: &str = "862fc3f3cfb2ce6c72974c906acb6b6ed0e9791825920fb6a32aed4908b1e5a0";
const FEATURES_SL8: &str = "88a8709a7a0d6ff695df9f242c666b190967a1570e6c9d7e472c8c03cf9c033d";

/// `(variant, heads digest, training digest)`.
const GOLDEN: [(GnnVariant, &str, &str); 4] = [
    (
        GnnVariant::Full,
        "b643562ae05021f124f45b230ccbe112aa505f8d03659cf5d24455e9193fb59b",
        "3547e935dfb476d39d0f5e5620cae330f390b536db4698733c6c13c3d976a73b",
    ),
    (
        GnnVariant::Basic,
        "b20a789287042639af1e8180afe9eb75cbffd15e51b5699237ad0745299cfe3e",
        "2f17a679c24edf66bb087921682fc9f8e584ea674bcd076bd11e750a04d3854c",
    ),
    (
        GnnVariant::NoAlign,
        "0a5697f95f8787fd89a97f60cb9b8ec676373c0acfad75965a54509cdc6bbffb",
        "e3f931b7acc59469e520af8d2afd8b07436b59c32c887c50dc6f832f5f4eb5af",
    ),
    (
        GnnVariant::Direct,
        "176c17ef2745bcb2ff4cf5fd4c4422d3b69f063a2b162c4420fbb7ba2dc6ae37",
        "653d60de99a61c56ac3aa12ce2f237cd423f984802c30cd3ed37f8fae5b3e91a",
    ),
];

fn push_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    buf.extend((m.rows() as u64).to_le_bytes());
    buf.extend((m.cols() as u64).to_le_bytes());
    for x in m.as_slice() {
        buf.extend(x.to_bits().to_le_bytes());
    }
}

fn push_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    push_matrix(buf, &Matrix::row(xs.to_vec()));
}

/// The committed Fig. 6 checkpoint of a variant.
fn checkpoint(variant: GnnVariant) -> PtMapGnn {
    let name = match variant {
        GnnVariant::Full => "full",
        GnnVariant::Basic => "basic",
        GnnVariant::NoAlign => "noalign",
        GnnVariant::Direct => "direct",
    };
    let path = format!(
        "{}/../../results/gnn_{name}_3000_120.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    PtMapGnn::from_bytes(&bytes).unwrap()
}

fn features_digest(samples: &[Sample]) -> String {
    let mut buf = Vec::new();
    for s in samples {
        let i = &s.input;
        for m in [&i.sw_x, &i.sw_mask, &i.hw_x, &i.hw_adj, &i.vec] {
            push_matrix(&mut buf, m);
        }
        buf.extend(i.mii.to_le_bytes());
    }
    hex(&sha256(&buf))
}

#[test]
fn gnn_inference_and_training_match_golden_digests() {
    let s4 = real_benchmark_samples(&presets::s4(), 3);
    let sl8 = real_benchmark_samples(&presets::sl8(), 3);
    assert_eq!(features_digest(&s4), FEATURES_S4, "S4 features changed");
    assert_eq!(features_digest(&sl8), FEATURES_SL8, "SL8 features changed");
    let all: Vec<Sample> = s4.iter().chain(&sl8).cloned().collect();

    for (variant, heads_golden, train_golden) in GOLDEN {
        let model = checkpoint(variant);
        assert_eq!(model.config.variant, variant);
        let mut buf = Vec::new();
        for (k, s) in all.iter().enumerate() {
            let mut g = Graph::new();
            let tape = model.forward(&mut g, &s.input).heads(&g);
            let fast = model.infer(&s.input);
            let bits = |h: &ptmap_gnn::Heads| {
                [h.eq_logits[0], h.eq_logits[1], h.res, h.pro_epi].map(f32::to_bits)
            };
            assert_eq!(bits(&fast), bits(&tape), "{variant:?} sample {k}");
            push_f32s(&mut buf, &tape.eq_logits);
            push_f32s(&mut buf, &[tape.res]);
            push_f32s(&mut buf, &[tape.pro_epi]);
            let p = model.predict(&s.input);
            assert_eq!(p, fast.decode(variant, s.input.mii));
            buf.extend(p.ii.to_le_bytes());
            buf.extend(p.pro_epi.to_le_bytes());
        }
        assert_eq!(hex(&sha256(&buf)), heads_golden, "{variant:?} heads");

        let mut fresh = PtMapGnn::new(ModelConfig {
            hidden: 16,
            variant,
            ..ModelConfig::default()
        });
        let stats = train(
            &mut fresh,
            &all,
            &TrainConfig {
                epochs: 3,
                batch: 8,
                ..TrainConfig::default()
            },
        );
        let mut buf = Vec::new();
        for p in fresh.params() {
            push_matrix(&mut buf, &p.value);
        }
        for l in &stats.epoch_losses {
            buf.extend(l.to_bits().to_le_bytes());
        }
        assert_eq!(hex(&sha256(&buf)), train_golden, "{variant:?} training");
    }
}
