//! The textual IR round-trips: print -> parse -> print is a fixed point,
//! parsed modules verify, and they execute identically — checked over
//! every workload module and its instrumented and prefetch-transformed
//! derivatives (the richest IR this repository produces).

use stride_prefetch::core::{
    instrument, prefetch_with_profiles, run_profiling, PipelineConfig, PrefetchConfig,
    ProfilingMethod, ProfilingVariant,
};
use stride_prefetch::ir::{
    fingerprint_module, module_from_string, module_to_string, verify_module, Module,
};
use stride_prefetch::vm::{FlatTiming, NullRuntime, Vm, VmConfig};
use stride_prefetch::workloads::{all_workloads, Scale};

fn assert_round_trip(module: &Module, what: &str) -> Module {
    let text = module_to_string(module);
    let parsed = module_from_string(&text).unwrap_or_else(|e| panic!("{what}: parse failed: {e}"));
    let text2 = module_to_string(&parsed);
    assert_eq!(text, text2, "{what}: print->parse->print not a fixed point");
    assert_eq!(
        fingerprint_module(module),
        fingerprint_module(&parsed),
        "{what}: the parsed module's fingerprint differs from the printed one's"
    );
    verify_module(&parsed).unwrap_or_else(|e| panic!("{what}: parsed module invalid: {e}"));
    parsed
}

#[test]
fn workload_modules_round_trip_and_run_identically() {
    for w in all_workloads(Scale::Test) {
        let parsed = assert_round_trip(&w.module, w.name);
        let run = |m: &Module| {
            let mut vm = Vm::new(m, VmConfig::default());
            vm.run(&w.train_args, &mut FlatTiming, &mut NullRuntime)
                .expect("run")
                .return_value
        };
        assert_eq!(
            run(&w.module),
            run(&parsed),
            "{}: behaviour changed",
            w.name
        );
    }
}

#[test]
fn instrumented_modules_round_trip() {
    for w in all_workloads(Scale::Test).into_iter().take(4) {
        for method in [ProfilingMethod::EdgeCheck, ProfilingMethod::NaiveAll] {
            let inst = instrument(&w.module, method, &PrefetchConfig::paper());
            assert_round_trip(&inst.module, &format!("{} ({method})", w.name));
        }
    }
}

#[test]
fn prefetch_transformed_modules_round_trip() {
    let config = PipelineConfig::default();
    for name in ["mcf", "gap", "parser"] {
        let w = stride_prefetch::workloads::workload_by_name(name, Scale::Test).unwrap();
        let outcome = run_profiling(
            &w.module,
            &w.train_args,
            ProfilingVariant::NaiveAll,
            &config,
        )
        .expect("profiling");
        let (transformed, _, _) = prefetch_with_profiles(
            &w.module,
            &outcome.edge,
            outcome.source,
            &outcome.stride,
            &config,
        );
        assert_round_trip(&transformed, name);
    }
}
