//! The paper's compared methods (§IV-A "Compared Methods"), once: each is
//! a named (filter, ordering) pair run through the shared enumeration
//! engine:
//!
//! | paper name | filter | ordering | note |
//! |---|---|---|---|
//! | QSI    | LDF | QuickSI | QSI filters lazily during enumeration; LDF is its effective candidate structure |
//! | RI     | LDF | RI      | RI is structure-only |
//! | VF2++  | LDF | VF2++   | |
//! | GQL    | GQL | GraphQL | |
//! | CFL    | NLF | CFL     | path-based order on NLF candidates |
//! | VEQ    | NLF | VEQ     | ordering rule only; see `order::veq` |
//! | Hybrid | GQL | RI      | the SIGMOD'20 study's recommended stack |
//! | RL-QVO | GQL | learned | same filter + enumeration as Hybrid |
//!
//! The CLI's `--method`, the server's `method=` and the figure harness's
//! roster all read this table, so a name means the same pair everywhere.
//! Filters and orderings are zero-sized or `const`, so the table hands out
//! `&'static dyn` — nothing is boxed per request.

use crate::filter::{CandidateFilter, GqlFilter, LdfFilter, NlfFilter};
use crate::order::{CflOrdering, GqlOrdering, OrderingMethod, QsiOrdering, RiOrdering, VeqOrdering, Vf2ppOrdering};

/// One compared method.
#[derive(Clone, Copy)]
pub struct Method<'a> {
    /// Paper display name ("VF2++").
    pub name: &'static str,
    /// Name on the command line and the wire ("vf2pp").
    pub cli: &'static str,
    /// Phase-1 strategy.
    pub filter: &'a dyn CandidateFilter,
    /// Phase-2 strategy.
    pub ordering: &'a dyn OrderingMethod,
}

/// The seven heuristic baselines of Figure 3, in the paper's order.
pub static ROSTER: [Method<'static>; 7] = [
    Method { name: "VEQ", cli: "veq", filter: &NlfFilter, ordering: &VeqOrdering },
    Method { name: "Hybrid", cli: "hybrid", filter: &GqlFilter::DEFAULT, ordering: &RiOrdering },
    Method { name: "RI", cli: "ri", filter: &LdfFilter, ordering: &RiOrdering },
    Method { name: "QSI", cli: "qsi", filter: &LdfFilter, ordering: &QsiOrdering },
    Method { name: "VF2++", cli: "vf2pp", filter: &LdfFilter, ordering: &Vf2ppOrdering },
    Method { name: "GQL", cli: "gql", filter: &GqlFilter::DEFAULT, ordering: &GqlOrdering },
    Method { name: "CFL", cli: "cfl", filter: &NlfFilter, ordering: &CflOrdering },
];

impl Method<'static> {
    /// The baseline the command line and the wire call `cli`.
    pub fn by_cli_name(cli: &str) -> Option<Self> {
        ROSTER.iter().find(|m| m.cli == cli).copied()
    }

    /// `Hybrid` — GQL filtering + RI ordering: the stack the in-memory
    /// study recommends, the paper's main baseline, and the default.
    pub fn hybrid() -> Self {
        ROSTER[1]
    }
}

impl<'a> Method<'a> {
    /// RL-QVO (`rlqvo`): identical filter and enumeration to `Hybrid`,
    /// with a learned ordering plugged in.
    pub fn learned(ordering: &'a dyn OrderingMethod) -> Method<'a> {
        Method { name: "RL-QVO", cli: "rlqvo", ordering, ..Method::hybrid() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The header table, row by row and in the paper's order: every CLI
    /// name resolves to the documented pair.
    #[test]
    fn cli_names_resolve_and_unknown_names_do_not() {
        let documented = [
            ("veq", "VEQ", "NLF", "VEQ"),
            ("hybrid", "Hybrid", "GQL", "RI"),
            ("ri", "RI", "LDF", "RI"),
            ("qsi", "QSI", "LDF", "QSI"),
            ("vf2pp", "VF2++", "LDF", "VF2++"),
            ("gql", "GQL", "GQL", "GQL"),
            ("cfl", "CFL", "NLF", "CFL"),
        ];
        assert_eq!(ROSTER.len(), documented.len());
        for (m, (cli, name, filter, ordering)) in ROSTER.iter().zip(documented) {
            assert_eq!((m.cli, m.name), (cli, name), "paper order");
            let found = Method::by_cli_name(cli).expect("every roster name resolves");
            assert_eq!((found.name, found.filter.name(), found.ordering.name()), (name, filter, ordering));
        }
        assert_eq!(Method::hybrid().name, "Hybrid");
        assert!(Method::by_cli_name("rlqvo").is_none(), "the learned method needs a model, not a table row");
        for unknown in ["Hybrid", "quicksi", ""] {
            assert!(Method::by_cli_name(unknown).is_none(), "{unknown:?}");
        }
        let learned = Method::learned(&GqlOrdering);
        assert_eq!((learned.name, learned.cli), ("RL-QVO", "rlqvo"));
        assert_eq!(learned.filter.cache_key(), Method::hybrid().filter.cache_key());
    }
}
