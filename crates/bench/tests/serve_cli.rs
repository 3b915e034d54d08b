//! CLI acceptance for `repro serve --slo-ms`: a budget that the modeled
//! clock cannot represent — one whose absolute deadlines overflow `u64`,
//! or one that rounds to zero cycles — must fail with the spec
//! validator's named error and exit code 1, before any grid point runs.

use std::process::Command;

fn serve_with_slo(ms: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--quick", "--slo-ms", ms])
        .output()
        .expect("can spawn repro");
    (out.status.code().expect("repro exits normally"), String::from_utf8_lossy(&out.stderr).into())
}

#[test]
fn overflowing_slo_budget_is_a_named_error() {
    let (code, stderr) = serve_with_slo("1e20");
    assert_eq!(code, 1, "stderr:\n{stderr}");
    assert!(
        stderr.contains("serve failed: arrival + deadline of tenant 0's last frame overflows u64"),
        "stderr:\n{stderr}"
    );
}

#[test]
fn zero_cycle_slo_budget_is_a_named_error() {
    let (code, stderr) = serve_with_slo("1e-30");
    assert_eq!(code, 1, "stderr:\n{stderr}");
    assert!(stderr.contains("serve failed: base deadline must be >= 1 cycle"), "stderr:\n{stderr}");
}
