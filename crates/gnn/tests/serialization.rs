//! Model persistence tests: the bench harness caches trained models as
//! JSON, so serialization must round-trip exactly.

use ptmap_arch::presets;
use ptmap_gnn::dataset::{generate_dataset, DatasetConfig};
use ptmap_gnn::model::{GnnVariant, ModelConfig, PtMapGnn};
use ptmap_gnn::train::{fine_tune, train, TrainConfig};

#[test]
fn serde_round_trip_preserves_predictions() {
    let data = generate_dataset(&DatasetConfig {
        samples: 12,
        archs: vec![presets::s4()],
        seed: 33,
        ..DatasetConfig::default()
    });
    let mut model = PtMapGnn::new(ModelConfig {
        hidden: 8,
        ..ModelConfig::default()
    });
    train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        },
    );

    let json = serde_json::to_string(&model).unwrap();
    let restored: PtMapGnn = serde_json::from_str(&json).unwrap();
    for s in &data {
        assert_eq!(model.predict(&s.input), restored.predict(&s.input));
    }
}

#[test]
fn byte_encoding_is_deterministic() {
    // The snapshot store checksums `to_bytes()` output, so the byte
    // encoding must be stable: encode -> decode -> encode produces the
    // identical byte string, and two encodes of the same value agree.
    let data = generate_dataset(&DatasetConfig {
        samples: 6,
        archs: vec![presets::s4()],
        seed: 34,
        ..DatasetConfig::default()
    });
    let mut model = PtMapGnn::new(ModelConfig {
        hidden: 8,
        ..ModelConfig::default()
    });
    train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
    );

    let b1 = model.to_bytes();
    assert_eq!(b1, model.to_bytes(), "repeat encodes must agree");
    let restored = PtMapGnn::from_bytes(&b1).expect("decode");
    let b2 = restored.to_bytes();
    assert_eq!(b1, b2, "decode/encode must be byte-identical");
    for s in &data {
        assert_eq!(model.predict(&s.input), restored.predict(&s.input));
    }
}

#[test]
fn fine_tuned_model_predicts_like_its_round_trip() {
    // Prediction memoises the G_hw branch inside the model; fine-tuning
    // must invalidate it, so the tuned model predicts exactly like a
    // fresh decode of itself (which starts with an empty memo).
    let data = generate_dataset(&DatasetConfig {
        samples: 12,
        archs: vec![presets::s4(), presets::sl8()],
        seed: 35,
        ..DatasetConfig::default()
    });
    let mut model = PtMapGnn::new(ModelConfig {
        hidden: 8,
        ..ModelConfig::default()
    });
    let before: Vec<_> = data.iter().map(|s| model.infer(&s.input)).collect();
    fine_tune(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
    );
    let copy = PtMapGnn::from_bytes(&model.to_bytes()).expect("decode");
    for (s, old) in data.iter().zip(&before) {
        let heads = model.infer(&s.input);
        assert_eq!(heads, copy.infer(&s.input));
        assert_ne!(&heads, old, "fine-tuning must change the raw heads");
        assert_eq!(model.predict(&s.input), copy.predict(&s.input));
    }
}

#[test]
fn from_bytes_rejects_garbage() {
    assert!(PtMapGnn::from_bytes(b"not a model").is_err());
    assert!(PtMapGnn::from_bytes(&[0xff, 0xfe, 0x00]).is_err());
    assert!(PtMapGnn::from_bytes(b"{\"config\":{}}").is_err());
}

#[test]
fn all_variants_serialize() {
    for variant in [
        GnnVariant::Full,
        GnnVariant::Basic,
        GnnVariant::NoAlign,
        GnnVariant::Direct,
    ] {
        let model = PtMapGnn::new(ModelConfig {
            hidden: 8,
            variant,
            ..ModelConfig::default()
        });
        let json = serde_json::to_string(&model).unwrap();
        let restored: PtMapGnn = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.config.variant, variant);
        assert_eq!(restored.param_count(), model.param_count());
    }
}
