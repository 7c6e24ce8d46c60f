//! Logical query plans and EXPLAIN rendering.
//!
//! EXPLAIN is the first tool the tutorial's "Find out what happens!" chapter
//! lists (db2expln, `EXPLAIN select …` in MySQL/PostgreSQL/MonetDB); every
//! [`Plan`] renders itself as an indented operator tree.

use crate::catalog::Catalog;
use crate::error::DbError;
use crate::expr::{AggFunc, Expr};
use crate::types::DataType;

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Base-table scan; `projection` (if set, by the optimizer) restricts
    /// the columns read.
    Scan {
        /// Table name.
        table: String,
        /// Optional column-index projection (pruned read).
        projection: Option<Vec<usize>>,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Boolean predicate over the input schema.
        predicate: Expr,
    },
    /// Column projection / computation.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// (expression, output name) pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Hash equi-join.
    Join {
        /// Left (build) input.
        left: Box<Plan>,
        /// Right (probe) input.
        right: Box<Plan>,
        /// Join key over the left schema.
        left_key: Expr,
        /// Join key over the right schema.
        right_key: Expr,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Group-by expressions (empty = single global group).
        group_by: Vec<(Expr, String)>,
        /// (function, argument, output name); argument ignored for
        /// COUNT(*) which is encoded as `Literal(Int(1))`.
        aggregates: Vec<(AggFunc, Expr, String)>,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// (key expression, descending?) pairs, major key first.
        keys: Vec<(Expr, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Maximum rows to emit.
        n: usize,
    },
    /// Duplicate elimination (SELECT DISTINCT), preserving first-seen
    /// order.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Fused Sort + Limit: keep only the best `n` rows (optimizer-created;
    /// the parser never produces this directly).
    TopN {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys, major first.
        keys: Vec<(Expr, bool)>,
        /// Rows to keep.
        n: usize,
    },
}

impl Plan {
    /// Derives the output schema against `catalog`.
    pub fn schema(&self, catalog: &Catalog) -> Result<Vec<(String, DataType)>, DbError> {
        match self {
            Plan::Scan { table, projection } => {
                let t = catalog.table(table)?;
                let full = t.schema();
                Ok(match projection {
                    None => full,
                    Some(idxs) => idxs.iter().map(|&i| full[i].clone()).collect(),
                })
            }
            Plan::Filter { input, .. } => input.schema(catalog),
            Plan::Project { input, exprs } => {
                let in_schema = input.schema(catalog)?;
                exprs
                    .iter()
                    .map(|(e, name)| Ok((name.clone(), e.data_type(&in_schema)?)))
                    .collect()
            }
            Plan::Join { left, right, .. } => {
                let mut schema = left.schema(catalog)?;
                schema.extend(right.schema(catalog)?);
                Ok(schema)
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let in_schema = input.schema(catalog)?;
                let mut out = Vec::new();
                for (e, name) in group_by {
                    out.push((name.clone(), e.data_type(&in_schema)?));
                }
                for (func, arg, name) in aggregates {
                    let dt = match func {
                        AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
                        AggFunc::Avg => DataType::Float,
                        AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg.data_type(&in_schema)?,
                    };
                    out.push((name.clone(), dt));
                }
                Ok(out)
            }
            Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input }
            | Plan::TopN { input, .. } => input.schema(catalog),
        }
    }

    /// The tables this plan scans, in the order both engines scan them:
    /// leaves left to right, since a join runs its left input first.
    pub fn scanned_tables(&self) -> Vec<&str> {
        match self {
            Plan::Scan { table, .. } => vec![table],
            Plan::Join { left, right, .. } => {
                let mut tables = left.scanned_tables();
                tables.extend(right.scanned_tables());
                tables
            }
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input }
            | Plan::TopN { input, .. } => input.scanned_tables(),
        }
    }

    /// Renders the indented operator tree (EXPLAIN output).
    pub fn explain(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        self.explain_into(catalog, 0, &mut out);
        out
    }

    fn input_names(&self, catalog: &Catalog, input: &Plan) -> Vec<String> {
        input
            .schema(catalog)
            .map(|s| s.into_iter().map(|(n, _)| n).collect())
            .unwrap_or_default()
    }

    fn explain_into(&self, catalog: &Catalog, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan { table, projection } => {
                let cols = match projection {
                    None => "*".to_owned(),
                    Some(idxs) => {
                        let names: Vec<String> = catalog
                            .table(table)
                            .map(|t| idxs.iter().map(|&i| t.column_names()[i].clone()).collect())
                            .unwrap_or_default();
                        names.join(", ")
                    }
                };
                out.push_str(&format!("{pad}Scan {table} [{cols}]\n"));
            }
            Plan::Filter { input, predicate } => {
                let names = self.input_names(catalog, input);
                out.push_str(&format!("{pad}Filter {}\n", predicate.render(&names)));
                input.explain_into(catalog, depth + 1, out);
            }
            Plan::Project { input, exprs } => {
                let names = self.input_names(catalog, input);
                let list: Vec<String> = exprs
                    .iter()
                    .map(|(e, n)| format!("{} AS {n}", e.render(&names)))
                    .collect();
                out.push_str(&format!("{pad}Project {}\n", list.join(", ")));
                input.explain_into(catalog, depth + 1, out);
            }
            Plan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let ln = self.input_names(catalog, left);
                let rn = self.input_names(catalog, right);
                out.push_str(&format!(
                    "{pad}HashJoin {} = {}\n",
                    left_key.render(&ln),
                    right_key.render(&rn)
                ));
                left.explain_into(catalog, depth + 1, out);
                right.explain_into(catalog, depth + 1, out);
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let names = self.input_names(catalog, input);
                let groups: Vec<String> = group_by.iter().map(|(e, _)| e.render(&names)).collect();
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|(f, e, n)| format!("{} AS {n}", f.render_call(&e.render(&names))))
                    .collect();
                out.push_str(&format!(
                    "{pad}HashAggregate group=[{}] aggs=[{}]\n",
                    groups.join(", "),
                    aggs.join(", ")
                ));
                input.explain_into(catalog, depth + 1, out);
            }
            Plan::Sort { input, keys } => {
                let names = self.input_names(catalog, input);
                let list: Vec<String> = keys
                    .iter()
                    .map(|(e, desc)| {
                        format!("{}{}", e.render(&names), if *desc { " DESC" } else { "" })
                    })
                    .collect();
                out.push_str(&format!("{pad}Sort {}\n", list.join(", ")));
                input.explain_into(catalog, depth + 1, out);
            }
            Plan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.explain_into(catalog, depth + 1, out);
            }
            Plan::Distinct { input } => {
                out.push_str(&format!("{pad}Distinct\n"));
                input.explain_into(catalog, depth + 1, out);
            }
            Plan::TopN { input, keys, n } => {
                let names = self.input_names(catalog, input);
                let list: Vec<String> = keys
                    .iter()
                    .map(|(e, desc)| {
                        format!("{}{}", e.render(&names), if *desc { " DESC" } else { "" })
                    })
                    .collect();
                out.push_str(&format!("{pad}TopN {n} by {}\n", list.join(", ")));
                input.explain_into(catalog, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::table::TableBuilder;
    use crate::types::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t = TableBuilder::new("items")
            .column("id", DataType::Int)
            .column("price", DataType::Float)
            .build();
        t.push_row(vec![Value::Int(1), Value::Float(2.0)]).unwrap();
        c.register(t).unwrap();
        c
    }

    #[test]
    fn scan_schema() {
        let c = catalog();
        let p = Plan::Scan {
            table: "items".into(),
            projection: None,
        };
        assert_eq!(
            p.schema(&c).unwrap(),
            vec![
                ("id".to_owned(), DataType::Int),
                ("price".to_owned(), DataType::Float)
            ]
        );
        let pruned = Plan::Scan {
            table: "items".into(),
            projection: Some(vec![1]),
        };
        assert_eq!(
            pruned.schema(&c).unwrap(),
            vec![("price".to_owned(), DataType::Float)]
        );
    }

    #[test]
    fn aggregate_schema_types() {
        let c = catalog();
        let p = Plan::Aggregate {
            input: Box::new(Plan::Scan {
                table: "items".into(),
                projection: None,
            }),
            group_by: vec![(Expr::ColumnIdx(0), "id".into())],
            aggregates: vec![
                (AggFunc::Sum, Expr::ColumnIdx(1), "total".into()),
                (AggFunc::Count, Expr::Literal(Value::Int(1)), "n".into()),
                (AggFunc::Avg, Expr::ColumnIdx(1), "mean".into()),
            ],
        };
        let schema = p.schema(&c).unwrap();
        assert_eq!(schema[0], ("id".to_owned(), DataType::Int));
        assert_eq!(schema[1], ("total".to_owned(), DataType::Float));
        assert_eq!(schema[2], ("n".to_owned(), DataType::Int));
        assert_eq!(schema[3], ("mean".to_owned(), DataType::Float));
    }

    #[test]
    fn join_schema_concatenates() {
        let mut c = catalog();
        let t2 = TableBuilder::new("tags")
            .column("item_id", DataType::Int)
            .column("tag", DataType::Str)
            .build();
        c.register(t2).unwrap();
        let p = Plan::Join {
            left: Box::new(Plan::Scan {
                table: "items".into(),
                projection: None,
            }),
            right: Box::new(Plan::Scan {
                table: "tags".into(),
                projection: None,
            }),
            left_key: Expr::ColumnIdx(0),
            right_key: Expr::ColumnIdx(0),
        };
        let names: Vec<String> = p.schema(&c).unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["id", "price", "item_id", "tag"]);
        assert_eq!(
            p.scanned_tables(),
            vec!["items", "tags"],
            "left input first"
        );
    }

    #[test]
    fn explain_renders_tree() {
        let c = catalog();
        let p = Plan::Limit {
            n: 10,
            input: Box::new(Plan::Filter {
                predicate: Expr::bin(
                    BinOp::Gt,
                    Expr::ColumnIdx(1),
                    Expr::Literal(Value::Float(1.0)),
                ),
                input: Box::new(Plan::Scan {
                    table: "items".into(),
                    projection: None,
                }),
            }),
        };
        let text = p.explain(&c);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("Limit 10"));
        assert!(lines[1].contains("Filter (price > 1.0)"));
        assert!(lines[2].trim_start().starts_with("Scan items"));
        // Indentation grows with depth.
        assert!(lines[2].starts_with("    "));
    }

    #[test]
    fn schema_error_propagates() {
        let c = catalog();
        let p = Plan::Scan {
            table: "missing".into(),
            projection: None,
        };
        assert!(matches!(p.schema(&c), Err(DbError::UnknownTable(_))));
    }
}
