//! CollaPois — the paper's primary contribution.
//!
//! This crate implements the collaborative backdoor poisoning attack of
//! *"A Client-level Assessment of Collaborative Backdoor Poisoning in
//! Non-IID Federated Learning"* (ICDCS 2025) on top of the `collapois-fl`
//! substrate, together with everything the paper's evaluation compares it
//! against:
//!
//! * [`trojan`] — training the Trojaned model X on the attacker's auxiliary
//!   data (Eq. 1 / Algorithm 1 line 3).
//! * [`collapois`] — the attack itself: every compromised client submits
//!   `Δθ_c = ψ_c·(X − θ^t)` with the dynamic rate `ψ_c ~ U[a,b]` (Eq. 4),
//!   optional l2 clipping to a shared bound `A` and optional τ-upscaling
//!   (Theorem 3's lower-bound control).
//! * [`baselines`] — one poisoned-training adversary behind DPois (local
//!   training on poisoned data), MRepl (model replacement with boosting),
//!   DBA (distributed sub-triggers), label flipping and the semantic
//!   backdoor.
//! * [`theory`] — Theorems 1–3: the lower bound on `|C|`, the convergence
//!   bound `‖θ − X‖₂`, and the server's X-estimation error bounds.
//! * [`stealth`] — the §IV-D / §V "bypassing defenses" analysis: blending
//!   malicious gradient angles/magnitudes into the benign background and the
//!   t-test/Levene/KS/3σ battery.
//! * [`analysis`] — gradient-scatter measurements (Figs. 3 and 6).
//! * [`scenario`] — the experiment driver combining dataset × α × attack ×
//!   defense × FL algorithm, producing per-round and per-client reports.
//! * [`targeted`] — the Discussion-section (§VI) escalation: a "semi-ready"
//!   Trojaned model released on an activation policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baselines;
pub mod collapois;
pub mod scenario;
pub mod stealth;
pub mod targeted;
pub mod theory;
pub mod trojan;

pub use collapois::{CollaPois, CollaPoisConfig};
pub use scenario::{RunOptions, Scenario, ScenarioConfig, ScenarioReport, SimKnobs};
pub use trojan::TrojanConfig;
