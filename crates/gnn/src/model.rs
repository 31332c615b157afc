//! The PT-Map predictive model (Fig. 5d, Tab. 2).
//!
//! Stacked GAT layers embed `G_sw`, stacked GCN layers embed `G_hw`;
//! average pooling gives graph-level vectors which are aligned by a
//! Kronecker product (letting SW and HW gradients interact), fused with
//! the `Vec` meta-features via a Hadamard product, and fed to per-task
//! FC heads:
//!
//! * **II equivalence** — classifies `II_map == MII`;
//! * **II residual** — regresses `II_res = II_map − MII` with the
//!   two-term loss (absolute + α·relative);
//! * **ProEpi** — regresses the pipeline fill/drain cycles.
//!
//! The ablation variants of Fig. 6 are selected by [`GnnVariant`].

use crate::autograd::{Graph, Neighbours, Var};
use crate::features::{self, GnnInput};
use crate::tensor::Matrix;
use crate::train::Param;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use std::sync::RwLock;

/// Internal scale applied to the ProEpi regression target.
pub const PROEPI_SCALE: f32 = 0.1;
/// Internal scale applied to the II-residual regression target.
pub const RES_SCALE: f32 = 0.25;

/// Model variants (the paper's Fig. 6 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GnnVariant {
    /// The full GNN-PT-Map model.
    Full,
    /// GNN-b: only base features in `G_sw`/`G_hw`.
    Basic,
    /// GNN-c: no Kronecker/Hadamard alignment (plain concatenation).
    NoAlign,
    /// GNN-e: direct II/ProEpi regression without the three sub-tasks.
    Direct,
}

/// Model hyper-parameters (Tab. 4; hidden size scaled down by default
/// for laptop-scale training — see DESIGN.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Hidden dimension (paper: 128; default here: 32).
    pub hidden: usize,
    /// Stacked GAT/GCN layer count (paper: 3).
    pub layers: usize,
    /// Variant selector.
    pub variant: GnnVariant,
    /// α of the two-term II-residual loss (paper: 0.5).
    pub alpha: f32,
    /// Parameter-initialization seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            hidden: 32,
            layers: 3,
            variant: GnnVariant::Full,
            alpha: 0.5,
            seed: 17,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct GatParams {
    w: Param,
    a_src: Param,
    a_dst: Param,
    b: Param,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct GcnParams {
    w: Param,
    b: Param,
}

/// The predictive model: parameters plus forward/predict logic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PtMapGnn {
    /// Configuration this model was built with.
    pub config: ModelConfig,
    gat: Vec<GatParams>,
    gcn: Vec<GcnParams>,
    pool_sw_w: Param,
    pool_sw_b: Param,
    pool_hw_w: Param,
    pool_hw_b: Param,
    align_w: Param,
    align_b: Param,
    vec_w: Param,
    vec_b: Param,
    shared_w: Param,
    shared_b: Param,
    head_eq_w: Param,
    head_eq_b: Param,
    head_res_w: Param,
    head_res_b: Param,
    head_pe_w: Param,
    head_pe_b: Param,
    /// `G_hw` branch outputs of earlier predictions (never serialized).
    #[serde(skip)]
    hw_memo: HwMemo,
}

/// Forward-pass outputs (task heads) plus the parameter vars needed to
/// read gradients back.
pub struct Forward {
    /// `[1,2]` equivalence logits (heads reinterpreted for `Direct`).
    pub eq_logits: Var,
    /// `[1,1]` scaled II-residual (or direct II for `Direct`).
    pub res: Var,
    /// `[1,1]` scaled ProEpi.
    pub pro_epi: Var,
    /// Parameter vars, in [`PtMapGnn::params`] order.
    pub param_vars: Vec<Var>,
}

impl Forward {
    /// The raw head outputs of this pass.
    pub fn heads(&self, g: &Graph) -> Heads {
        Heads::read(g, self.eq_logits, self.res, self.pro_epi)
    }
}

/// Raw task-head outputs of one pass, before decoding to integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heads {
    /// Equivalence logits `[unequal, equal]`.
    pub eq_logits: [f32; 2],
    /// Scaled II residual (scaled raw II for `Direct`).
    pub res: f32,
    /// Scaled ProEpi.
    pub pro_epi: f32,
}

impl Heads {
    fn read(g: &Graph, eq_logits: Var, res: Var, pro_epi: Var) -> Self {
        let l = g.value(eq_logits);
        Heads {
            eq_logits: [l.get(0, 0), l.get(0, 1)],
            res: g.value(res).get(0, 0),
            pro_epi: g.value(pro_epi).get(0, 0),
        }
    }

    /// Decodes the heads into integer metrics per Eqn. 3–4.
    pub fn decode(&self, variant: GnnVariant, mii: u32) -> Prediction {
        let pro_epi = (self.pro_epi / PROEPI_SCALE).round().max(0.0) as u32;
        let ii = match variant {
            // Direct variant: `res` regresses the raw II.
            GnnVariant::Direct => (self.res / RES_SCALE).round().max(1.0) as u32,
            _ if self.eq_logits[1] >= self.eq_logits[0] => mii,
            _ => {
                let res = (self.res / RES_SCALE).round().max(0.0) as u32;
                mii + res.max(1)
            }
        };
        Prediction { ii, pro_epi }
    }
}

/// The fully connected layers after the GAT/GCN stacks, in
/// [`PtMapGnn::params`] order (one weight/bias pair each).
#[derive(Debug, Clone, Copy)]
enum Fc {
    PoolSw,
    PoolHw,
    Align,
    Vec,
    Shared,
    HeadEq,
    HeadRes,
    HeadPe,
}

/// A model's parameters fed into one graph, in [`PtMapGnn::params`]
/// order, addressed by layer.
struct ParamVars {
    vars: Vec<Var>,
    layers: usize,
}

impl ParamVars {
    /// GAT layer `l`: `[w, a_src, a_dst, b]`.
    fn gat(&self, l: usize) -> [Var; 4] {
        let v = &self.vars[4 * l..];
        [v[0], v[1], v[2], v[3]]
    }

    /// GCN layer `l`: `[w, b]`.
    fn gcn(&self, l: usize) -> [Var; 2] {
        let v = &self.vars[4 * self.layers + 2 * l..];
        [v[0], v[1]]
    }

    /// A fully connected layer: `(w, b)`.
    fn fc(&self, fc: Fc) -> (Var, Var) {
        let v = &self.vars[6 * self.layers + 2 * fc as usize..];
        (v[0], v[1])
    }
}

/// `x · w + b`.
fn dense(g: &mut Graph, x: Var, (w, b): (Var, Var)) -> Var {
    let y = g.matmul(x, w);
    g.add_row(y, b)
}

/// `relu(x · w + b)`.
fn dense_relu(g: &mut Graph, x: Var, wb: (Var, Var)) -> Var {
    let y = dense(g, x, wb);
    g.relu(y)
}

/// Graph pooling: the mean embedding concatenated with a count-scaled
/// copy (average pooling alone erases graph size, the dominant
/// congestion signal), projected back to the hidden width.
fn pool(g: &mut Graph, x: Var, wb: (Var, Var), nodes: usize) -> Var {
    let mean = g.mean_rows(x);
    let sum = g.scale(mean, nodes as f32 / 16.0);
    let cat = g.concat_cols(mean, sum);
    dense_relu(g, cat, wb)
}

/// Most architectures one model predicts for before old `G_hw` memo
/// entries are evicted.
const HW_MEMO_CAP: usize = 8;

/// Memoised `G_hw` branch outputs. The branch reads only `hw_x` and
/// `hw_adj` (plus the variant, which decides whether `hw_x` is
/// stripped), so an entry is keyed by those matrices' exact bits and
/// is valid until the parameters change: [`PtMapGnn::params_mut`]
/// clears it.
#[derive(Default)]
struct HwMemo(RwLock<Vec<HwEntry>>);

#[derive(Clone)]
struct HwEntry {
    variant: GnnVariant,
    hw_x: Matrix,
    hw_adj: Matrix,
    out: Matrix,
}

impl HwEntry {
    fn matches(&self, variant: GnnVariant, input: &GnnInput) -> bool {
        self.variant == variant
            && same_bits(&self.hw_x, &input.hw_x)
            && same_bits(&self.hw_adj, &input.hw_adj)
    }
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    (a.rows(), a.cols()) == (b.rows(), b.cols())
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

impl HwMemo {
    fn entries(&self) -> std::sync::RwLockReadGuard<'_, Vec<HwEntry>> {
        // Entries are only ever pushed whole, so a poisoned lock still
        // guards a consistent list.
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    fn get(&self, variant: GnnVariant, input: &GnnInput) -> Option<Matrix> {
        self.entries()
            .iter()
            .find(|e| e.matches(variant, input))
            .map(|e| e.out.clone())
    }

    fn insert(&self, variant: GnnVariant, input: &GnnInput, out: &Matrix) {
        let mut entries = self.0.write().unwrap_or_else(|e| e.into_inner());
        if entries.iter().any(|e| e.matches(variant, input)) {
            return;
        }
        if entries.len() == HW_MEMO_CAP {
            entries.remove(0);
        }
        entries.push(HwEntry {
            variant,
            hw_x: input.hw_x.clone(),
            hw_adj: input.hw_adj.clone(),
            out: out.clone(),
        });
    }

    fn clear(&mut self) {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// A clone has the same parameters, so the entries stay valid.
impl Clone for HwMemo {
    fn clone(&self) -> Self {
        HwMemo(RwLock::new(self.entries().clone()))
    }
}

impl std::fmt::Debug for HwMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HwMemo({} entries)", self.entries().len())
    }
}

/// A prediction in integer metrics (Eqn. 3–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted mapped II.
    pub ii: u32,
    /// Predicted pipeline fill/drain cycles.
    pub pro_epi: u32,
}

impl PtMapGnn {
    /// Initializes a model with Xavier-uniform parameters.
    pub fn new(config: ModelConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let h = config.hidden;
        let mut gat = Vec::new();
        let mut gcn = Vec::new();
        for l in 0..config.layers {
            let sw_in = if l == 0 { features::SW_FEATS } else { h };
            let hw_in = if l == 0 { features::HW_FEATS } else { h };
            gat.push(GatParams {
                w: Param::xavier(sw_in, h, &mut rng),
                a_src: Param::xavier(h, 1, &mut rng),
                a_dst: Param::xavier(h, 1, &mut rng),
                b: Param::zeros(1, h),
            });
            gcn.push(GcnParams {
                w: Param::xavier(hw_in, h, &mut rng),
                b: Param::zeros(1, h),
            });
        }
        let align_in = if config.variant == GnnVariant::NoAlign {
            2 * h
        } else {
            h * h
        };
        PtMapGnn {
            gat,
            gcn,
            pool_sw_w: Param::xavier(2 * h, h, &mut rng),
            pool_sw_b: Param::zeros(1, h),
            pool_hw_w: Param::xavier(2 * h, h, &mut rng),
            pool_hw_b: Param::zeros(1, h),
            align_w: Param::xavier(align_in, h, &mut rng),
            align_b: Param::zeros(1, h),
            vec_w: Param::xavier(features::VEC_FEATS, h, &mut rng),
            vec_b: Param::zeros(1, h),
            shared_w: Param::xavier(2 * h, h, &mut rng),
            shared_b: Param::zeros(1, h),
            head_eq_w: Param::xavier(h, 2, &mut rng),
            head_eq_b: Param::zeros(1, 2),
            head_res_w: Param::xavier(h, 1, &mut rng),
            head_res_b: Param::zeros(1, 1),
            head_pe_w: Param::xavier(h, 1, &mut rng),
            head_pe_b: Param::zeros(1, 1),
            hw_memo: HwMemo::default(),
            config,
        }
    }

    /// Immutable parameter list in a stable order.
    pub fn params(&self) -> Vec<&Param> {
        let mut out = Vec::new();
        for g in &self.gat {
            out.extend([&g.w, &g.a_src, &g.a_dst, &g.b]);
        }
        for g in &self.gcn {
            out.extend([&g.w, &g.b]);
        }
        out.extend([
            &self.pool_sw_w,
            &self.pool_sw_b,
            &self.pool_hw_w,
            &self.pool_hw_b,
            &self.align_w,
            &self.align_b,
            &self.vec_w,
            &self.vec_b,
            &self.shared_w,
            &self.shared_b,
            &self.head_eq_w,
            &self.head_eq_b,
            &self.head_res_w,
            &self.head_res_b,
            &self.head_pe_w,
            &self.head_pe_b,
        ]);
        out
    }

    /// Mutable parameter list in the same order as [`params`](Self::params).
    /// Clears the `G_hw` memo, since the caller may change any weight.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.hw_memo.clear();
        let mut out: Vec<&mut Param> = Vec::new();
        for g in &mut self.gat {
            out.push(&mut g.w);
            out.push(&mut g.a_src);
            out.push(&mut g.a_dst);
            out.push(&mut g.b);
        }
        for g in &mut self.gcn {
            out.push(&mut g.w);
            out.push(&mut g.b);
        }
        out.push(&mut self.pool_sw_w);
        out.push(&mut self.pool_sw_b);
        out.push(&mut self.pool_hw_w);
        out.push(&mut self.pool_hw_b);
        out.push(&mut self.align_w);
        out.push(&mut self.align_b);
        out.push(&mut self.vec_w);
        out.push(&mut self.vec_b);
        out.push(&mut self.shared_w);
        out.push(&mut self.shared_b);
        out.push(&mut self.head_eq_w);
        out.push(&mut self.head_eq_b);
        out.push(&mut self.head_res_w);
        out.push(&mut self.head_res_b);
        out.push(&mut self.head_pe_w);
        out.push(&mut self.head_pe_b);
        out
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.params()
            .iter()
            .map(|p| p.value.rows() * p.value.cols())
            .sum()
    }

    /// Feeds every parameter into `g` by reference, in
    /// [`params`](Self::params) order.
    fn feed_params<'a>(&'a self, g: &mut Graph<'a>) -> ParamVars {
        ParamVars {
            vars: self
                .params()
                .iter()
                .map(|p| g.input_ref(&p.value))
                .collect(),
            layers: self.config.layers,
        }
    }

    /// Runs the forward pass on a tape.
    pub fn forward<'a>(&'a self, g: &mut Graph<'a>, input: &'a GnnInput) -> Forward {
        let p = self.feed_params(g);
        let sw_vec = self.sw_branch(g, &p, input);
        let hw_vec = self.hw_branch(g, &p, input);
        let (eq_logits, res, pro_epi) = self.heads(g, &p, sw_vec, hw_vec, input);
        Forward {
            eq_logits,
            res,
            pro_epi,
            param_vars: p.vars,
        }
    }

    /// The GNN-b ablation zeroes the extended attributes of `x` from
    /// column `ext_start` on; other variants read `x` as is.
    fn node_features<'a>(&self, g: &mut Graph<'a>, x: &'a Matrix, ext_start: usize) -> Var {
        if self.config.variant == GnnVariant::Basic {
            g.input(features::zero_cols_from(x, ext_start))
        } else {
            g.input_ref(x)
        }
    }

    /// `G_sw` branch: the GAT stack over the DFG, pooled to `[1,h]`.
    fn sw_branch<'a>(&self, g: &mut Graph<'a>, p: &ParamVars, input: &'a GnnInput) -> Var {
        let nbrs = Rc::new(Neighbours::from_mask(&input.sw_mask));
        let mut sw = self.node_features(g, &input.sw_x, features::SW_EXT_START);
        for l in 0..self.config.layers {
            let [w, a_s, a_d, b] = p.gat(l);
            let hw = g.matmul(sw, w);
            let s = g.matmul(hw, a_s);
            let d = g.matmul(hw, a_d);
            let agg = g.gat_attention(s, d, hw, &nbrs, 0.2);
            let agg = g.add_row(agg, b);
            sw = g.relu(agg);
        }
        pool(g, sw, p.fc(Fc::PoolSw), input.sw_x.rows())
    }

    /// `G_hw` branch: the GCN stack over the PE graph, pooled to
    /// `[1,h]`. It reads only `hw_x` and `hw_adj`.
    fn hw_branch<'a>(&self, g: &mut Graph<'a>, p: &ParamVars, input: &'a GnnInput) -> Var {
        let adj = g.input_ref(&input.hw_adj);
        let mut hwv = self.node_features(g, &input.hw_x, features::HW_EXT_START);
        for l in 0..self.config.layers {
            let [w, b] = p.gcn(l);
            let xw = g.matmul(hwv, w);
            let prop = g.matmul(adj, xw);
            let prop = g.add_row(prop, b);
            hwv = g.relu(prop);
        }
        pool(g, hwv, p.fc(Fc::PoolHw), input.hw_x.rows())
    }

    /// Alignment, `Vec` fusion, the shared layer and the three task
    /// heads: `(eq_logits, res, pro_epi)`.
    fn heads<'a>(
        &self,
        g: &mut Graph<'a>,
        p: &ParamVars,
        sw_vec: Var,
        hw_vec: Var,
        input: &'a GnnInput,
    ) -> (Var, Var, Var) {
        let no_align = self.config.variant == GnnVariant::NoAlign;
        let aligned_in = if no_align {
            g.concat_cols(sw_vec, hw_vec)
        } else {
            g.kron_rows(sw_vec, hw_vec)
        };
        let aligned = dense_relu(g, aligned_in, p.fc(Fc::Align));
        let vec_in = g.input_ref(&input.vec);
        let vec_h = dense_relu(g, vec_in, p.fc(Fc::Vec));
        // Hadamard fusion (skipped by NoAlign) + concat + shared FC.
        let fused = if no_align {
            aligned
        } else {
            g.mul(aligned, vec_h)
        };
        let unified = g.concat_cols(fused, vec_h);
        let shared = dense_relu(g, unified, p.fc(Fc::Shared));
        (
            dense(g, shared, p.fc(Fc::HeadEq)),
            dense(g, shared, p.fc(Fc::HeadRes)),
            dense(g, shared, p.fc(Fc::HeadPe)),
        )
    }

    /// Runs the network without a tape and returns the raw head
    /// outputs, bit-identical to [`forward`](Self::forward)'s. The
    /// `G_hw` branch output is memoised per architecture.
    pub fn infer(&self, input: &GnnInput) -> Heads {
        let mut g = Graph::inference();
        let p = self.feed_params(&mut g);
        let sw_vec = self.sw_branch(&mut g, &p, input);
        let variant = self.config.variant;
        let hw_vec = match self.hw_memo.get(variant, input) {
            Some(out) => g.input(out),
            None => {
                let v = self.hw_branch(&mut g, &p, input);
                self.hw_memo.insert(variant, input, g.value(v));
                v
            }
        };
        let (eq_logits, res, pro_epi) = self.heads(&mut g, &p, sw_vec, hw_vec, input);
        Heads::read(&g, eq_logits, res, pro_epi)
    }

    /// Predicts integer metrics per Eqn. 3–4.
    pub fn predict(&self, input: &GnnInput) -> Prediction {
        self.infer(input).decode(self.config.variant, input.mii)
    }

    /// Serializes the model (weights, Adam moments, config) to a
    /// deterministic JSON byte string. The encoding is stable for a
    /// given model value — `from_bytes(to_bytes(m)).to_bytes()` is
    /// byte-identical — which lets snapshot stores content-address and
    /// checksum model versions.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("model serialization cannot fail")
            .into_bytes()
    }

    /// Deserializes a model produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("model not utf-8: {e}"))?;
        serde_json::from_str(text).map_err(|e| format!("model decode failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;
    use ptmap_ir::{dfg::build_dfg, ProgramBuilder};

    fn dfg() -> ptmap_ir::Dfg {
        let mut b = ProgramBuilder::new("k");
        let x = b.array("X", &[64]);
        let y = b.array("Y", &[64]);
        let i = b.open_loop("i", 64);
        let v = b.mul(b.load(x, &[b.idx(i)]), b.load(y, &[b.idx(i)]));
        b.store(y, &[b.idx(i)], v);
        b.close_loop();
        let p = b.finish();
        let nest = p.perfect_nests().remove(0);
        build_dfg(&p, &nest, &[]).unwrap()
    }

    fn input() -> GnnInput {
        features::build_input(&dfg(), &presets::s4())
    }

    #[test]
    fn forward_shapes() {
        let model = PtMapGnn::new(ModelConfig::default());
        let inp = input();
        let mut g = Graph::new();
        let out = model.forward(&mut g, &inp);
        assert_eq!(g.value(out.eq_logits).cols(), 2);
        assert_eq!(g.value(out.res).cols(), 1);
        assert_eq!(g.value(out.pro_epi).cols(), 1);
        assert_eq!(out.param_vars.len(), model.params().len());
    }

    #[test]
    fn predict_is_deterministic_and_sane() {
        let model = PtMapGnn::new(ModelConfig::default());
        let inp = input();
        let a = model.predict(&inp);
        let b = model.predict(&inp);
        assert_eq!(a, b);
        assert!(a.ii >= 1);
    }

    #[test]
    fn variants_share_param_ordering() {
        let inp = input();
        for variant in [
            GnnVariant::Full,
            GnnVariant::Basic,
            GnnVariant::NoAlign,
            GnnVariant::Direct,
        ] {
            let model = PtMapGnn::new(ModelConfig {
                variant,
                ..ModelConfig::default()
            });
            let mut g = Graph::new();
            let out = model.forward(&mut g, &inp);
            let fed: Vec<(usize, usize)> = out
                .param_vars
                .iter()
                .map(|&v| (g.value(v).rows(), g.value(v).cols()))
                .collect();
            let declared: Vec<(usize, usize)> = model
                .params()
                .iter()
                .map(|p| (p.value.rows(), p.value.cols()))
                .collect();
            assert_eq!(fed, declared, "{variant:?}");
        }
    }

    #[test]
    fn infer_matches_the_training_tape() {
        let inp = input();
        for variant in [
            GnnVariant::Full,
            GnnVariant::Basic,
            GnnVariant::NoAlign,
            GnnVariant::Direct,
        ] {
            let model = PtMapGnn::new(ModelConfig {
                variant,
                ..ModelConfig::default()
            });
            let mut g = Graph::new();
            let tape = model.forward(&mut g, &inp).heads(&g);
            // Twice: a cold and a memoised G_hw branch.
            for _ in 0..2 {
                let fast = model.infer(&inp);
                assert_eq!(format!("{fast:?}"), format!("{tape:?}"), "{variant:?}");
                assert_eq!(
                    fast.eq_logits.map(f32::to_bits),
                    tape.eq_logits.map(f32::to_bits)
                );
                assert_eq!(fast.res.to_bits(), tape.res.to_bits());
                assert_eq!(fast.pro_epi.to_bits(), tape.pro_epi.to_bits());
            }
        }
    }

    #[test]
    fn params_mut_invalidates_the_hw_memo() {
        let inp = input();
        let mut model = PtMapGnn::new(ModelConfig::default());
        let before = model.infer(&inp);
        assert_eq!(model.hw_memo.entries().len(), 1);
        for p in model.params_mut() {
            for x in p.value.as_mut_slice() {
                *x *= 1.5;
            }
        }
        assert_eq!(model.hw_memo.entries().len(), 0);
        let after = model.infer(&inp);
        let mut g = Graph::new();
        let tape = model.forward(&mut g, &inp).heads(&g);
        assert_eq!(after, tape);
        assert_ne!(after, before);
    }

    #[test]
    fn hw_memo_is_keyed_by_architecture() {
        let s4 = input();
        let mut sl8 = input();
        let dfg_input = features::build_input(&dfg(), &presets::sl8());
        sl8.hw_x = dfg_input.hw_x;
        sl8.hw_adj = dfg_input.hw_adj;
        let model = PtMapGnn::new(ModelConfig::default());
        let cold_sl8 = model.infer(&sl8);
        let cold_s4 = model.infer(&s4);
        assert_eq!(model.hw_memo.entries().len(), 2);
        assert_eq!(model.infer(&sl8), cold_sl8);
        assert_eq!(model.infer(&s4), cold_s4);
        assert_eq!(model.clone().infer(&s4), cold_s4);
        assert_eq!(model.hw_memo.entries().len(), 2);
    }

    #[test]
    fn param_lists_agree() {
        let mut model = PtMapGnn::new(ModelConfig::default());
        let shapes: Vec<(usize, usize)> = model
            .params()
            .iter()
            .map(|p| (p.value.rows(), p.value.cols()))
            .collect();
        let shapes_mut: Vec<(usize, usize)> = model
            .params_mut()
            .iter()
            .map(|p| (p.value.rows(), p.value.cols()))
            .collect();
        assert_eq!(shapes, shapes_mut);
    }

    #[test]
    fn full_model_has_nontrivial_capacity() {
        let model = PtMapGnn::new(ModelConfig::default());
        assert!(model.param_count() > 10_000);
    }
}
