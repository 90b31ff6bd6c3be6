//! The superinstruction-fusion switch: a design compiled with fusion off
//! must produce a bit-identical result with zero fused hits.
//!
//! The fusion switch and the `dda_obs` recorder are process-global, so
//! this test lives alone in its own binary: no other test can flip the
//! switch or add to the counters while it runs.

use dda_sim::{elaborate, fusion_enabled, set_fusion, Design, SimOptions, SimResult, Simulator};

fn design(src: &str, top: &str) -> Design {
    let sf = dda_verilog::parse(src).expect("parses");
    elaborate(&sf, top).expect("elaborates")
}

fn scalar_run(d: &Design) -> SimResult {
    Simulator::from_design(d.clone())
        .run(&SimOptions::default())
        .expect("scalar run")
}

/// Deterministic clocked fixture whose expressions hit all three fusion
/// peepholes: a comparison feeding a ternary (compare+select), signal
/// loads feeding adds (load+bin), and constant addends (const+bin).
const FUSABLE_SRC: &str = "module tb;\n\
     reg clk = 0; reg [7:0] a = 3, b = 7; reg [15:0] acc = 0;\n\
     always #5 clk = ~clk;\n\
     always @(posedge clk) begin\n\
       acc <= acc + ((a < b) ? {8'd0, a} : {8'd0, b}) + 16'd3;\n\
       a <= a + 8'd5;\n\
       b <= b + 8'd1;\n\
     end\n\
     initial begin #105 $display(\"acc=%0d a=%0d b=%0d\", acc, a, b); $finish; end\n\
     endmodule";

/// Restores fusion even when an assertion in the test body fails.
struct FusionOn;
impl Drop for FusionOn {
    fn drop(&mut self) {
        set_fusion(true);
    }
}

/// The switch is consulted at compile time, so each setting gets a fresh
/// design.
#[test]
fn fusion_off_is_equivalent_and_records_no_hits() {
    dda_obs::reset();
    dda_obs::enable();
    assert!(fusion_enabled(), "fusion ships enabled");

    let fused = scalar_run(&design(FUSABLE_SRC, "tb"));
    let fused_snap = dda_obs::snapshot();
    assert!(fused_snap.counter("sim.fused.hits") > 0);

    dda_obs::reset();
    dda_obs::enable();
    set_fusion(false);
    let _restore = FusionOn;
    let plain = scalar_run(&design(FUSABLE_SRC, "tb"));
    let plain_snap = dda_obs::snapshot();
    assert_eq!(
        plain_snap.counter("sim.fused.hits"),
        0,
        "fusion-off compile must emit no superinstructions"
    );
    assert_eq!(plain, fused, "fusion changed observable behaviour");
    dda_obs::disable();
}
