//! The compared-method roster (paper §IV-A "Compared Methods").
//!
//! Each method is a (filter, ordering) pair run through the shared
//! enumeration engine:
//!
//! | paper name | filter | ordering | note |
//! |---|---|---|---|
//! | QSI    | LDF | QuickSI | QSI filters lazily during enumeration; LDF is its effective candidate structure |
//! | RI     | LDF | RI      | RI is structure-only |
//! | VF2++  | LDF | VF2++   | |
//! | GQL    | GQL | GraphQL | |
//! | CFL    | NLF | CFL     | path-based order on NLF candidates |
//! | VEQ    | NLF | VEQ     | ordering rule only; see DESIGN.md §2 |
//! | Hybrid | GQL | RI      | the SIGMOD'20 study's recommended stack |
//! | RL-QVO | GQL | learned | same filter + enumeration as Hybrid |
//!
//! The pairs themselves live once, in [`rlqvo_matching::methods`] — the
//! same table the CLI's `--method` and the server's `method=` resolve.

use rlqvo_core::RlQvoOrdering;
use rlqvo_matching::{Method, ROSTER};

/// One compared method: a named (filter, ordering) pair.
pub type BenchMethod<'a> = Method<'a>;

/// The seven heuristic baselines of Figure 3, in the paper's order.
pub fn baseline_methods() -> Vec<BenchMethod<'static>> {
    ROSTER.to_vec()
}

/// `Hybrid` — GQL filtering + RI ordering + the shared enumerator (the
/// stack the in-memory study recommends and the paper's main baseline).
pub fn hybrid_method() -> BenchMethod<'static> {
    Method::hybrid()
}

/// RL-QVO: identical filter + enumeration to Hybrid, learned ordering
/// (`model.ordering()`, held by the caller).
pub fn rlqvo_method<'a>(ordering: &'a RlQvoOrdering<'a>) -> BenchMethod<'a> {
    Method::learned(ordering)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The header table, row by row: every CLI name resolves through the
    /// one roster to the documented pair, and `baseline_methods()` is that
    /// roster in the paper's order.
    #[test]
    fn roster_matches_paper() {
        let documented = [
            ("veq", "VEQ", "NLF", "VEQ"),
            ("hybrid", "Hybrid", "GQL", "RI"),
            ("ri", "RI", "LDF", "RI"),
            ("qsi", "QSI", "LDF", "QSI"),
            ("vf2pp", "VF2++", "LDF", "VF2++"),
            ("gql", "GQL", "GQL", "GQL"),
            ("cfl", "CFL", "NLF", "CFL"),
        ];
        let roster = baseline_methods();
        assert_eq!(roster.len(), documented.len());
        for (m, (cli, name, filter, ordering)) in roster.iter().zip(documented) {
            assert_eq!((m.cli, m.name), (cli, name), "paper order");
            let by_name = Method::by_cli_name(cli).expect("every CLI name resolves");
            assert_eq!((by_name.name, by_name.filter.name(), by_name.ordering.name()), (name, filter, ordering));
        }
        assert!(Method::by_cli_name("quicksi").is_none(), "unknown names do not resolve");
    }

    #[test]
    fn hybrid_is_gql_plus_ri() {
        let h = hybrid_method();
        assert_eq!(h.filter.name(), "GQL");
        assert_eq!(h.ordering.name(), "RI");
    }

    #[test]
    fn rlqvo_shares_hybrids_filter() {
        let model = rlqvo_core::RlQvo::new(rlqvo_core::RlQvoConfig::fast());
        let learned = model.ordering();
        let m = rlqvo_method(&learned);
        assert_eq!(m.filter.cache_key(), hybrid_method().filter.cache_key());
        assert_eq!((m.name, m.ordering.name()), ("RL-QVO", "RL-QVO"));
    }
}
