//! The command line refuses bad arguments with exit code 2 and prints
//! no result line.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_crescent-perfbench")).args(args).output().expect("binary runs")
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "sweep_grid", "--seconds", "61"],
        &["--workload", "serve_grid", "--trace", "yes"],
        &["--workload", "train_approx", "--seed", "x"],
        &["--workload"],
        &[],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""), "{args:?}");
    }
}
