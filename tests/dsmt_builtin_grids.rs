//! `dsmt sweep run` resolves `demo` and every figure grid by name.

use std::process::Command;

#[test]
fn sweep_run_accepts_demo_and_every_figure_grid() {
    let names = [
        "demo",
        "fig1",
        "fig3",
        "fig4",
        "fig5-l2-16",
        "fig5-l2-64",
        "fetch-policy",
        "fetch-policy-hetero",
        "seed-variance",
        "ablation-iq-depth",
        "ablation-mshr",
        "ablation-unit-split",
        "ablation-l1-assoc",
    ];
    for name in names {
        let out = Command::new(env!("CARGO_BIN_EXE_dsmt"))
            .args(["sweep", "run", name])
            .env("DSMT_INSTS", "1000")
            .env("DSMT_SWEEP_CACHE", "off")
            .env("DSMT_LOG", "off")
            .output()
            .expect("run dsmt");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "dsmt sweep run {name}: {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.starts_with(&format!("`{name}`: ")), "{stdout}");
    }
}
