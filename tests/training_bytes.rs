//! Golden bits of training at the benchmark's model shape.
//!
//! `SamConfig::default()` — MADE 64×64 without residual skips, batch 32,
//! straight-through Gumbel-Softmax — is what `pipeline_join` trains. Here it
//! trains for two epochs on a small 6-table IMDB stand-in, and the FNV-1a of
//! the saved model file and the bits of each epoch's mean loss are compared
//! with recorded constants. `generation_bytes` trains a 24×24 residual model;
//! this file locks the shape the benchmark measures, where the first layer's
//! one-hot input is widest and the hidden layers are a multiple of the
//! register tile.
//!
//! A second case trains the same model on soft samples (no straight-through).
//! A straight-through sample feeds back `s + (1 − s)` at its argmax, which in
//! f32 is exactly `1.0` for every `s` in `[0, 1]`; a soft sample feeds back
//! the probabilities themselves, so a first layer that mistook its input for
//! exact ones and zeros shows only there.
//!
//! Training goes through `f32::exp`/`ln` (softmax, Gumbel noise), so the
//! constants are pinned to x86_64 Linux and the test skips elsewhere. To
//! re-record after an intended change, paste the `actual` line of the
//! failure message over the constants and say in CHANGES.md why they moved.

use sam::prelude::*;

/// `(straight_through, FNV-1a of the saved model file, f32::to_bits of the
/// two epochs' mean losses)`, recorded on `5268845`.
const GOLDEN: [(bool, u64, [u32; 2]); 2] = [
    (true, 0x30bd_fdd9_0c6b_d532, [1084396196, 1081609755]),
    (false, 0x7a74_b6f5_fe7c_1e90, [1071378819, 1070531013]),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Train `SamConfig::default()` for two epochs, with or without
/// straight-through samples, and compare the model file and the losses with
/// `GOLDEN`.
fn trains_to_the_recorded_bits(straight_through: bool) {
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        eprintln!(
            "training_bytes: skipped, the golden bits are recorded on x86_64 Linux \
             (softmax and Gumbel noise go through the platform libm)"
        );
        return;
    }
    let target = sam::datasets::imdb(&sam::datasets::ImdbConfig {
        titles: 300,
        seed: 1,
        ..Default::default()
    });
    let stats = DatabaseStats::from_database(&target);
    let mut gen = WorkloadGenerator::new(&target, 1);
    let workload = label_workload(&target, gen.multi_workload(160, 2)).unwrap();
    let mut config = SamConfig::default();
    config.train.epochs = 2;
    assert_eq!(
        (config.model.hidden.as_slice(), config.model.residual),
        (&[64, 64][..], false)
    );
    assert!(config.train.straight_through && config.train.batch_size == 32);
    config.train.straight_through = straight_through;

    let trained = Sam::fit(target.schema(), &stats, &workload, &config).unwrap();
    // The benchmark's 17 columns (one-hot width 199 at this size).
    assert_eq!(trained.model().net.num_columns(), 17);
    let file = sam::ar::save_model(trained.model(), trained.db_schema());
    let got_fnv = fnv1a(file.as_bytes());
    let got_loss: Vec<u32> = trained
        .report
        .epoch_losses
        .iter()
        .map(|l| l.to_bits())
        .collect();
    let &(_, want_fnv, want_loss) = GOLDEN
        .iter()
        .find(|g| g.0 == straight_through)
        .expect("a recorded case");
    assert!(
        got_fnv == want_fnv && got_loss == want_loss,
        "straight-through {straight_through}: trained bits moved\n\
         expected: model 0x{want_fnv:016x}, losses {want_loss:?}\n\
         actual:   model 0x{got_fnv:016x}, losses {got_loss:?} ({:?})",
        trained.report.epoch_losses
    );
}

#[test]
fn default_config_trains_to_the_recorded_bits() {
    trains_to_the_recorded_bits(true);
}

#[test]
fn soft_samples_train_to_the_recorded_bits() {
    trains_to_the_recorded_bits(false);
}
