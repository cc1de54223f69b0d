//! End-to-end tests of the `gpumem-cli` binary: FASTA in, MUMmer-style
//! match lines out, identical across tools.

use std::io::Write;
use std::process::Command;

use gpumem::seq::{write_fasta, FastaRecord, GenomeModel, MutationModel, PackedSeq};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gpumem-cli"))
}

fn write_pair(dir: &std::path::Path) -> (String, String) {
    let reference = GenomeModel::mammalian().generate(8_000, 1234);
    let query = {
        let model = MutationModel {
            sub_rate: 0.03,
            indel_rate: 0.003,
        };
        let mut rng = StdRng::seed_from_u64(1235);
        PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng))
    };
    let write = |name: &str, seq: &PackedSeq| -> String {
        let path = dir.join(name);
        let mut file = std::fs::File::create(&path).unwrap();
        write_fasta(
            &mut file,
            &[FastaRecord {
                header: name.into(),
                seq: seq.clone(),
            }],
        )
        .unwrap();
        file.flush().unwrap();
        path.to_str().unwrap().to_string()
    };
    (write("ref.fa", &reference), write("query.fa", &query))
}

#[test]
fn all_tools_print_identical_matches() {
    let dir = std::env::temp_dir().join("gpumem-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let run = |tool: &str| -> String {
        let out = cli()
            .args([
                "--tool",
                tool,
                "--min-len",
                "25",
                ref_fa.as_str(),
                query_fa.as_str(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{tool} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    let gpumem = run("gpumem");
    assert!(!gpumem.trim().is_empty(), "expected matches");
    for tool in ["mummer", "essamem", "sparsemem", "slamem"] {
        assert_eq!(run(tool), gpumem, "{tool} output differs");
    }
}

#[test]
fn mum_filter_is_a_subset() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-mum");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let lines = |extra: &[&str]| -> Vec<String> {
        let mut args = vec!["--tool", "mummer", "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa.as_str());
        let out = cli().args(&args).output().expect("binary runs");
        assert!(out.status.success());
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    };

    let all = lines(&[]);
    let mums = lines(&["--mum"]);
    assert!(!mums.is_empty());
    assert!(mums.len() <= all.len());
    for line in &mums {
        assert!(all.contains(line), "MUM line not in MEM output: {line}");
    }
}

#[test]
fn sanitize_flag_reports_clean_run() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-sanitize");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let out = cli()
        .args([
            "--tool",
            "gpumem",
            "--min-len",
            "25",
            "--seed-len",
            "8",
            "--sanitize",
            ref_fa.as_str(),
            query_fa.as_str(),
        ])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sanitized run failed: {err}");
    assert!(err.contains("sanitizer:"), "missing report: {err}");
    assert!(err.contains("0 hazard(s)"), "expected clean report: {err}");

    // The report must not change the matches themselves.
    let plain = cli()
        .args([
            "--tool",
            "gpumem",
            "--min-len",
            "25",
            "--seed-len",
            "8",
            ref_fa.as_str(),
            query_fa.as_str(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.stdout, plain.stdout);
}

#[test]
fn sanitize_flag_sees_the_launches_of_sharded_runs() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-sanitize-shards");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let out = cli()
        .args([
            "run",
            "--tool",
            "gpumem",
            "--min-len",
            "25",
            "--seed-len",
            "8",
            "--shards",
            "2",
            "--sanitize",
            ref_fa.as_str(),
            query_fa.as_str(),
        ])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sanitized sharded run failed: {err}");
    assert!(err.contains("0 hazard(s)"), "expected clean report: {err}");
    let launches: u64 = err
        .split("sanitizer: ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no launch count in report: {err}"));
    assert!(launches > 0, "the session saw no shard launch: {err}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = cli().arg("only-one-file.fa").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");

    let out = cli()
        .args([
            "--tool",
            "nonsense",
            "/nonexistent/a.fa",
            "/nonexistent/b.fa",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn multi_record_query_groups_hits_and_names_records() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-multi");
    std::fs::create_dir_all(&dir).unwrap();

    let reference = GenomeModel::mammalian().generate(8_000, 4321);
    let model = MutationModel {
        sub_rate: 0.03,
        indel_rate: 0.003,
    };
    let records: Vec<FastaRecord> = (0..3)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(4400 + i);
            FastaRecord {
                header: format!("read{i}"),
                seq: PackedSeq::from_codes(&model.apply(&reference.to_codes(), &mut rng)),
            }
        })
        .collect();

    let write = |name: &str, records: &[FastaRecord]| -> String {
        let path = dir.join(name);
        let mut file = std::fs::File::create(&path).unwrap();
        write_fasta(&mut file, records).unwrap();
        file.flush().unwrap();
        path.to_str().unwrap().to_string()
    };
    let ref_fa = write(
        "ref.fa",
        &[FastaRecord {
            header: "ref".into(),
            seq: reference.clone(),
        }],
    );
    let all_fa = write("queries.fa", &records);

    let run = |tool: &str, query_fa: &str, extra: &[&str]| -> String {
        let mut args = vec!["--tool", tool, "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa);
        let out = cli().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{tool} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    let batched = run("gpumem", &all_fa, &["--query-threads", "2"]);
    assert!(!batched.trim().is_empty(), "expected matches");

    // The batched run must equal the concatenation of per-record runs,
    // with the record name appended to every line, in input order.
    let mut expect = String::new();
    for (i, record) in records.iter().enumerate() {
        let one_fa = write(&format!("q{i}.fa"), std::slice::from_ref(record));
        for line in run("gpumem", &one_fa, &[]).lines() {
            expect.push_str(line);
            expect.push(' ');
            expect.push_str(&record.header);
            expect.push('\n');
        }
    }
    assert_eq!(batched, expect);

    // Worker count must not change the output, and the CPU baselines
    // must agree with the engine on multi-record input too.
    assert_eq!(run("gpumem", &all_fa, &["--query-threads", "4"]), batched);
    assert_eq!(run("mummer", &all_fa, &[]), batched);
}

#[test]
fn seed_mode_dual_matches_ref_only_output() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-seedmode");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let run = |extra: &[&str]| -> String {
        let mut args = vec!["--tool", "gpumem", "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa.as_str());
        let out = cli().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "gpumem {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };

    let ref_only = run(&["--seed-mode", "ref"]);
    assert_eq!(ref_only, run(&[]), "--seed-mode ref is the default");
    assert!(!ref_only.trim().is_empty(), "expected matches");
    // Auto-derived pair (L = 25, default ℓs = 13 → bound 13) and an
    // explicit valid pair both reproduce the exact MEM set.
    assert_eq!(run(&["--seed-mode", "dual"]), ref_only);
    assert_eq!(run(&["--seed-mode", "dual:3,4"]), ref_only);
}

#[test]
fn seed_mode_validation_errors_are_structured() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-seedmode-err");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let fail = |extra: &[&str]| -> String {
        let mut args = vec!["--tool", "gpumem", "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa.as_str());
        let out = cli().args(&args).output().expect("binary runs");
        assert!(!out.status.success(), "expected {extra:?} to fail");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    // gcd(4, 6) = 2: the structured IndexError names the co-prime
    // requirement.
    let err = fail(&["--seed-mode", "dual:4,6"]);
    assert!(err.contains("co-prime"), "{err}");

    // 13 · 9 = 117 over the bound L − ℓs + 1 = 13: the error names the
    // coverage bound.
    let err = fail(&["--seed-mode", "dual:13,9"]);
    assert!(err.contains("k1*k2"), "{err}");

    // A step of zero and a malformed mode string fail cleanly too.
    let err = fail(&["--seed-mode", "dual:0,3"]);
    assert!(err.contains("step"), "{err}");
    let err = fail(&["--seed-mode", "banana"]);
    assert!(err.contains("expected ref or dual"), "{err}");
    let err = fail(&["--seed-mode", "dual:5"]);
    assert!(err.contains("expected dual:<k1>,<k2>"), "{err}");
}

#[test]
fn whitespace_inside_query_sequence_lines_changes_nothing() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-whitespace");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);
    // The same query with a space after base 50 and a tab inside a
    // later sequence line.
    let clean = std::fs::read_to_string(&query_fa).unwrap();
    let mut lines: Vec<String> = clean.lines().map(str::to_string).collect();
    lines[1].insert(50, ' ');
    lines[3].insert(20, '\t');
    let spaced_fa = dir.join("query_spaced.fa");
    std::fs::write(&spaced_fa, lines.join("\n") + "\n").unwrap();

    let run = |query: &str| -> String {
        let out = cli()
            .args([
                "run",
                "--min-len",
                "25",
                "--seed-len",
                "8",
                ref_fa.as_str(),
                query,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{query}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let expect = run(&query_fa);
    assert!(!expect.trim().is_empty(), "expected matches");
    assert_eq!(run(spaced_fa.to_str().unwrap()), expect);
}

#[test]
fn multi_record_reference_is_refused() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-multi-ref");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, records: &[FastaRecord]| -> String {
        let path = dir.join(name);
        let mut file = std::fs::File::create(&path).unwrap();
        write_fasta(&mut file, records).unwrap();
        file.flush().unwrap();
        path.to_str().unwrap().to_string()
    };
    let second = GenomeModel::mammalian().generate(2_400, 4502);
    let ref_fa = write(
        "two_records.fa",
        &[
            FastaRecord {
                header: "first".into(),
                seq: GenomeModel::mammalian().generate(2_000, 4501),
            },
            FastaRecord {
                header: "second".into(),
                seq: second.clone(),
            },
        ],
    );
    // A copy of the second record: a run cut to the first record finds
    // none of it.
    let query_fa = write(
        "query.fa",
        &[FastaRecord {
            header: "copy".into(),
            seq: second,
        }],
    );
    let handles = dir.join("handles.tsv");
    let _ = std::fs::remove_file(&handles);
    let handles = handles.to_str().unwrap();
    let (r, q) = (ref_fa.as_str(), query_fa.as_str());
    for args in [
        vec!["run", "--min-len", "25", "--seed-len", "8", r, q],
        vec!["run", "--tool", "mummer", "--min-len", "25", r, q],
        vec!["metrics", "export", "--seed-len", "8", r, q],
        vec!["registry", "add", handles, "two", r, "--seed-len", "8"],
    ] {
        let out = cli().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{r}: reference FASTA holds 2 records")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn run_subcommand_matches_legacy_form_which_notes_deprecation() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-subcmd");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let legacy = cli()
        .args(["--tool", "gpumem", "--min-len", "25", &ref_fa, &query_fa])
        .output()
        .expect("binary runs");
    assert!(legacy.status.success());
    let err = String::from_utf8_lossy(&legacy.stderr);
    assert!(
        err.contains("deprecated"),
        "missing deprecation note: {err}"
    );

    let sub = cli()
        .args([
            "run",
            "--tool",
            "gpumem",
            "--min-len",
            "25",
            &ref_fa,
            &query_fa,
        ])
        .output()
        .expect("binary runs");
    assert!(sub.status.success());
    let err = String::from_utf8_lossy(&sub.stderr);
    assert!(
        !err.contains("deprecated"),
        "run subcommand should not warn: {err}"
    );
    assert_eq!(sub.stdout, legacy.stdout, "the two forms must agree");
    assert!(!sub.stdout.is_empty(), "expected matches");
}

#[test]
fn shards_flag_preserves_output() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-shards");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let run = |extra: &[&str]| -> Vec<u8> {
        let mut args = vec!["run", "--tool", "gpumem", "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa.as_str());
        let out = cli().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "gpumem {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };

    let single = run(&[]);
    assert!(!single.is_empty(), "expected matches");
    assert_eq!(run(&["--shards", "3"]), single, "sharding changed the MEMs");
    assert_eq!(
        run(&["--shards", "3", "--both-strands"]),
        run(&["--both-strands"]),
        "sharding changed the reverse-strand MEMs"
    );

    let out = cli()
        .args(["run", "--shards", "0", &ref_fa, &query_fa])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "--shards 0 must be rejected");
}

#[test]
fn registry_subcommands_round_trip() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-registry");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, _) = write_pair(&dir);
    let second = GenomeModel::mammalian().generate(6_000, 777);
    let second_fa = {
        let path = dir.join("ref2.fa");
        let mut file = std::fs::File::create(&path).unwrap();
        write_fasta(
            &mut file,
            &[FastaRecord {
                header: "ref2".into(),
                seq: second,
            }],
        )
        .unwrap();
        file.flush().unwrap();
        path.to_str().unwrap().to_string()
    };
    let handles = dir.join("handles.tsv");
    let _ = std::fs::remove_file(&handles);
    let handles = handles.to_str().unwrap();

    let add = |name: &str, fasta: &str| {
        let out = cli()
            .args(["registry", "add", handles, name, fasta, "--min-len", "25"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "registry add {name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains(&format!("registered {name}:")), "{stdout}");
    };
    add("chr1", &ref_fa);
    add("chr2", &second_fa);

    // A duplicate name is refused without clobbering the file.
    let out = cli()
        .args([
            "registry",
            "add",
            handles,
            "chr1",
            &ref_fa,
            "--min-len",
            "25",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("already registered"), "{err}");

    let out = cli()
        .args(["registry", "list", handles])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let listing = String::from_utf8(out.stdout).unwrap();
    assert!(listing.contains("handle"), "missing header: {listing}");
    assert!(
        listing.contains("chr1") && listing.contains("chr2"),
        "{listing}"
    );

    // Under a tiny budget, warming both references twice must churn.
    let out = cli()
        .args([
            "registry",
            "evict-stats",
            handles,
            "--budget",
            "4096",
            "--rounds",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "evict-stats failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = String::from_utf8(out.stdout).unwrap();
    for key in [
        "\"references\"",
        "\"evictions\"",
        "\"resident_bytes\"",
        "\"hits\"",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats}");
    }
    let evictions: u64 = stats
        .lines()
        .find(|l| l.contains("\"evictions\""))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().trim_end_matches(',').parse().unwrap())
        .unwrap();
    assert!(
        evictions > 0,
        "expected churn under a 4 KiB budget: {stats}"
    );
}

#[test]
fn bench_info_prints_device_catalog() {
    let out = cli()
        .args(["bench-info", "--min-len", "25"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "bench-info failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    for expected in [
        "Tesla K20c",
        "Tesla K40",
        "test-tiny",
        "tile_len",
        "working set",
    ] {
        assert!(stdout.contains(expected), "missing {expected}: {stdout}");
    }
}

#[test]
fn bench_check_compares_only_entries_of_the_same_rustc_and_nproc() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-bench-fingerprint");
    std::fs::create_dir_all(&dir).unwrap();
    let history = dir.join("history.jsonl");
    let entry = |rustc: &str, nproc: u32, wall: f64| {
        format!(
            "{{\"ts\":1,\"git_sha\":\"abc\",\"rustc\":\"{rustc}\",\"nproc\":{nproc},\
             \"wall_s\":{wall},\"match_wall_s\":0.2,\"qps_batch\":50.0,\"mems\":41040}}"
        )
    };
    let check = |lines: &[String]| {
        std::fs::write(&history, lines.join("\n") + "\n").unwrap();
        cli()
            .args([
                "bench-info",
                "--check",
                "--history",
                history.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs")
    };
    let here = "rustc 1.0.0 (test 2026-01-01)";
    // A faster entry from another toolchain would fail the newest one;
    // it is skipped, and the same-machine entry passes it.
    let out = check(&[
        entry(here, 2, 1.0),
        entry("rustc 9.9.9 (other 2026-01-01)", 2, 0.5),
        entry(here, 2, 1.1),
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "mismatched entry compared: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("comparing with 1 earlier entry"),
        "{stdout}"
    );
    assert!(stdout.contains("skipped 1"), "{stdout}");
    // Another CPU count is skipped too, and the same machine's regression
    // still fails.
    let out = check(&[
        entry(here, 2, 1.0),
        entry(here, 8, 2.0),
        entry(here, 2, 1.3),
    ]);
    assert!(!out.status.success(), "same-machine regression must fail");
    assert!(String::from_utf8(out.stdout).unwrap().contains("skipped 1"));
}

#[test]
fn both_strands_superset_and_strand_column() {
    let dir = std::env::temp_dir().join("gpumem-cli-test-strands");
    std::fs::create_dir_all(&dir).unwrap();
    let (ref_fa, query_fa) = write_pair(&dir);

    let run = |extra: &[&str]| -> Vec<String> {
        let mut args = vec!["--tool", "mummer", "--min-len", "25"];
        args.extend_from_slice(extra);
        args.push(ref_fa.as_str());
        args.push(query_fa.as_str());
        let out = cli().args(&args).output().unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    };
    let forward = run(&[]);
    let both = run(&["--both-strands"]);
    assert!(both.len() >= forward.len());
    assert!(forward.iter().all(|l| l.ends_with('+')));
    for line in &forward {
        assert!(both.contains(line));
    }
}
