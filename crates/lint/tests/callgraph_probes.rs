//! Parser and resolver regressions: constructs that once dropped calls
//! from the call graph without reporting them.

use mrvd_lint::callgraph::{CallGraph, FileInput, UnresolvedKind};
use mrvd_lint::lexer::lex;
use mrvd_lint::parser::parse_file;

/// A brace-delimited macro inside a fn body must not end the fn at the
/// macro's closing `}`: calls after it (and inside it) stay attributed.
#[test]
fn brace_macro_in_fn_body() {
    let src = "fn worker() {\n    let ok = matches! { inside() };\n    after_macro();\n}\n\
               fn tail() { other(); }\n";
    let items = parse_file(&lex(src));
    let worker = items.fns.iter().find(|f| f.name == "worker").unwrap();
    let names: Vec<&str> = worker.calls.iter().map(|c| c.name.as_str()).collect();
    assert!(
        names.contains(&"inside"),
        "call inside the macro lost: {names:?}"
    );
    assert!(
        names.contains(&"after_macro"),
        "after_macro lost: {names:?}"
    );
    assert!(
        !names.contains(&"other"),
        "tail's call leaked into worker: {names:?}"
    );
    assert_eq!(worker.end_line, 4);
    let tail = items.fns.iter().find(|f| f.name == "tail").unwrap();
    assert_eq!(tail.calls.len(), 1);
}

/// `module::fn()` resolves through the workspace module map (file
/// `helper.rs` defines module `helper`); a module path that names no
/// fn of that module is reported, never counted as external.
#[test]
fn module_qualified_workspace_call() {
    let helper = lex("pub fn go() {}\n");
    let nested = lex("pub fn stop() {}\n");
    let caller = lex("fn root_fn() { helper::go(); nested::stop(); helper::gone(); }\n");
    let (ih, inn, ic) = (
        parse_file(&helper),
        parse_file(&nested),
        parse_file(&caller),
    );
    let inputs = vec![
        FileInput {
            rel: "crates/a/src/helper.rs",
            items: &ih,
            test_spans: &[],
            is_test_path: false,
        },
        FileInput {
            rel: "crates/a/src/nested/mod.rs",
            items: &inn,
            test_spans: &[],
            is_test_path: false,
        },
        FileInput {
            rel: "crates/b/src/lib.rs",
            items: &ic,
            test_spans: &[],
            is_test_path: false,
        },
    ];
    let g = CallGraph::build(&inputs);
    let edges: Vec<(&str, &str)> = g
        .edges
        .iter()
        .map(|e| (g.nodes[e.from].name.as_str(), g.nodes[e.to].name.as_str()))
        .collect();
    assert_eq!(edges, [("root_fn", "go"), ("root_fn", "stop")]);
    assert_eq!(g.unresolved.len(), 1, "{:?}", g.unresolved);
    assert_eq!(g.unresolved[0].name, "gone");
    assert_eq!(g.unresolved[0].kind, UnresolvedKind::ModulePath);
    assert_eq!(g.external_calls, 0);
}
