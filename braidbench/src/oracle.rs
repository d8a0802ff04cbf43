//! Expected answers from the reference model, computed once per
//! distinct query text before anything is timed.

use braid::{CheckedSolutions, KnowledgeBase, Literal, Tuple};
use braid_sim::{Dataset, RefModel};
use std::collections::{BTreeSet, HashMap};

/// Expected answers from the reference model, one per distinct text.
pub struct Oracle {
    model: RefModel,
    texts: Vec<String>,
    answers: Vec<Vec<Tuple>>,
    ids: HashMap<String, usize>,
}

/// The knowledge base cut down to the rules `goals` can reach. The
/// reference model evaluates every rule bottom-up, and on the 364-person
/// tree the `cousin` extension alone takes it about 100 s; streams that
/// never ask for `cousin` need not pay for it.
fn reachable_rules(
    full: &KnowledgeBase,
    goals: &BTreeSet<String>,
) -> Result<KnowledgeBase, String> {
    let mut need = goals.clone();
    loop {
        let reached: Vec<String> = full
            .rules()
            .iter()
            .filter(|r| need.contains(&r.clause.head.pred))
            .flat_map(|r| &r.clause.body)
            .filter_map(|l| match l {
                Literal::Atom(a) | Literal::Neg(a) => Some(a.pred.clone()),
                _ => None,
            })
            .collect();
        let before = need.len();
        need.extend(reached);
        if need.len() == before {
            break;
        }
    }
    let mut kb = KnowledgeBase::new();
    for (name, arity) in full.base_relations() {
        kb.declare_base(name, arity);
    }
    for r in full
        .rules()
        .iter()
        .filter(|r| need.contains(&r.clause.head.pred))
    {
        kb.add_rule(r.id.clone(), r.clause.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(kb)
}

impl Oracle {
    /// A model over the rules the `queries` reach.
    ///
    /// # Errors
    /// Unparseable queries, or the model rejecting the knowledge base.
    pub fn new<'a>(
        dataset: &Dataset,
        queries: impl IntoIterator<Item = &'a String>,
    ) -> Result<Oracle, String> {
        let goals = queries
            .into_iter()
            .map(|q| {
                braid::parse_query(q)
                    .map(|a| a.pred)
                    .map_err(|e| format!("parse `{q}`: {e}"))
            })
            .collect::<Result<BTreeSet<_>, _>>()?;
        let kb = reachable_rules(&dataset.knowledge_base(), &goals)?;
        Ok(Oracle {
            model: RefModel::new(&dataset.catalog(), &kb)?,
            texts: Vec::new(),
            answers: Vec::new(),
            ids: HashMap::new(),
        })
    }

    /// The model's answer to `query` (`RefModel::solve_goal`).
    ///
    /// # Errors
    /// Parse errors and unknown predicates.
    pub fn solve(&self, query: &str) -> Result<Vec<Tuple>, String> {
        let goal = braid::parse_query(query).map_err(|e| format!("parse `{query}`: {e}"))?;
        self.model.solve_goal(&goal)
    }

    /// Ids of `queries`, solving each text not seen before.
    ///
    /// # Errors
    /// A query the model cannot answer.
    pub fn intern(&mut self, queries: &[String]) -> Result<Vec<usize>, String> {
        queries
            .iter()
            .map(|q| {
                if let Some(&id) = self.ids.get(q) {
                    return Ok(id);
                }
                let id = self.texts.len();
                let answer = self.solve(q)?;
                self.answers.push(answer);
                self.texts.push(q.clone());
                self.ids.insert(q.clone(), id);
                Ok(id)
            })
            .collect()
    }

    pub fn text(&self, id: usize) -> &str {
        &self.texts[id]
    }

    /// Is `answer` exact and equal to the model's?
    pub fn matches(&self, id: usize, answer: &CheckedSolutions) -> bool {
        answer.is_exact() && answer.solutions == self.answers[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams;

    #[test]
    fn answers_of_the_cut_down_model_equal_the_full_model() {
        // The full model on the small tree: every view, free and bound.
        let dataset = streams::HOT_DATASET;
        let model = RefModel::new(&dataset.catalog(), &dataset.knowledge_base()).expect("model");
        let mut queries = streams::hot_warmup();
        queries.extend(
            [
                "?- sibling(p5, p5).",
                "?- uncle(p1, p9).",
                "?- cousin(p9, Y).",
            ]
            .map(String::from),
        );
        let oracle = Oracle::new(&dataset, &queries).expect("oracle");
        for q in &queries {
            assert_eq!(oracle.solve(q), model.solve_text(q), "{q}");
        }
    }

    #[test]
    fn the_cut_down_model_keeps_every_reachable_rule() {
        let full = streams::HOT_DATASET.knowledge_base();
        let goals: BTreeSet<String> = ["uncle", "ancestor"].map(String::from).into();
        let kb = reachable_rules(&full, &goals).expect("kb");
        let heads: BTreeSet<&str> = kb
            .rules()
            .iter()
            .map(|r| r.clause.head.pred.as_str())
            .collect();
        assert_eq!(heads, ["ancestor", "uncle"].into());
        assert_eq!(
            kb.rules().len(),
            3,
            "both ancestor rules and the uncle rule"
        );
        let cousin: BTreeSet<String> = ["cousin".to_string()].into();
        let heads: BTreeSet<String> = reachable_rules(&full, &cousin)
            .expect("kb")
            .rules()
            .iter()
            .map(|r| r.clause.head.pred.clone())
            .collect();
        assert_eq!(heads, ["cousin", "sibling"].map(String::from).into());
    }
}
