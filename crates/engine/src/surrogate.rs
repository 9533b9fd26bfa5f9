//! Surrogate plans (paper §5, "Blocking mixed scripts").
//!
//! Once TrackerSift has classified the methods of a mixed script, a
//! *surrogate* can be generated: a replacement script that keeps the
//! functional methods, removes the tracking methods, and wraps the methods
//! that remain mixed in a *guard* — a predicate that blocks the tracking
//! invocations while allowing the functional ones (the paper sketches
//! deriving the predicate from invariants over the calling context; we
//! derive it from the stack-divergence analysis of Figure 5). Content
//! blockers such as uBlock Origin and Firefox SmartBlock ship hand-written
//! surrogates today; TrackerSift makes generating them automatic.

use crate::ratio::Classification;

/// What the surrogate does with one method of the original script.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodAction {
    /// The method is functional: kept verbatim.
    Keep,
    /// The method is tracking: replaced with an inert no-op stub so callers
    /// do not crash (the SmartBlock approach).
    Stub,
    /// The method is mixed: kept but wrapped in a guard predicate that
    /// blocks invocations whose call stack passes through a tracking-only
    /// divergence point.
    Guard {
        /// `script @ method` labels of the divergence points the guard
        /// checks for.
        blocked_callers: Vec<String>,
    },
}

/// The surrogate plan for one mixed script.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateScript {
    /// URL of the original mixed script.
    pub script_url: String,
    /// Action per method name.
    pub methods: Vec<(String, MethodAction)>,
    /// Number of tracking requests that the surrogate suppresses.
    pub suppressed_tracking_requests: u64,
    /// Number of functional requests the surrogate preserves.
    pub preserved_functional_requests: u64,
}

/// One method's inputs to the shared surrogate-plan constructor: its name,
/// classification, request counts, and (for mixed methods) the tracking-only
/// divergence points a guard can check for. Both the study's batch
/// generator (with call stacks) and the serving [`Sifter`](crate::Sifter)
/// (committed counts only, no stacks) reduce their data to this shape so
/// the two paths can never disagree on what a surrogate looks like.
#[derive(Debug, Clone)]
pub struct MethodPlan {
    /// Method name.
    pub name: String,
    /// The method-level classification driving the action.
    pub classification: Classification,
    /// Tracking requests attributed to the method.
    pub tracking: u64,
    /// Functional requests attributed to the method.
    pub functional: u64,
    /// `script @ method` labels of tracking-only divergence points (empty
    /// when no call-stack evidence is available).
    pub blocked_callers: Vec<String>,
}

impl SurrogateScript {
    /// The one constructor both the batch and the serving path use: map
    /// each method's classification to its action and account for what the
    /// surrogate suppresses and preserves. `methods` must already be sorted
    /// by name (the canonical order of the rendered payload).
    pub fn from_method_plans(script_url: String, methods: Vec<MethodPlan>) -> Self {
        let mut out = Vec::with_capacity(methods.len());
        let mut suppressed = 0u64;
        let mut preserved = 0u64;
        for plan in methods {
            let action = match plan.classification {
                Classification::Functional => {
                    preserved += plan.functional;
                    MethodAction::Keep
                }
                Classification::Tracking => {
                    suppressed += plan.tracking;
                    MethodAction::Stub
                }
                Classification::Mixed => {
                    // A guard only suppresses what it can distinguish.
                    if !plan.blocked_callers.is_empty() {
                        suppressed += plan.tracking;
                    }
                    preserved += plan.functional;
                    MethodAction::Guard {
                        blocked_callers: plan.blocked_callers,
                    }
                }
            };
            out.push((plan.name, action));
        }
        SurrogateScript {
            script_url,
            methods: out,
            suppressed_tracking_requests: suppressed,
            preserved_functional_requests: preserved,
        }
    }

    /// Methods kept unchanged.
    pub fn kept(&self) -> usize {
        self.methods
            .iter()
            .filter(|(_, a)| matches!(a, MethodAction::Keep))
            .count()
    }

    /// Methods stubbed out.
    pub fn stubbed(&self) -> usize {
        self.methods
            .iter()
            .filter(|(_, a)| matches!(a, MethodAction::Stub))
            .count()
    }

    /// Methods wrapped in guards.
    pub fn guarded(&self) -> usize {
        self.methods
            .iter()
            .filter(|(_, a)| matches!(a, MethodAction::Guard { .. }))
            .count()
    }

    /// Render the surrogate as a human-readable pseudo-JavaScript sketch —
    /// what a blocker would ship as the shim payload.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("// Surrogate for {}\n", self.script_url));
        out.push_str("// Generated by TrackerSift: functional methods kept, tracking methods\n");
        out.push_str("// stubbed, mixed methods guarded by call-stack predicates.\n");
        for (name, action) in &self.methods {
            match action {
                MethodAction::Keep => {
                    out.push_str(&format!(
                        "export {{ {name} }} from 'original'; // functional\n"
                    ));
                }
                MethodAction::Stub => {
                    out.push_str(&format!(
                        "export function {name}() {{ /* tracking removed */ }}\n"
                    ));
                }
                MethodAction::Guard { blocked_callers } => {
                    out.push_str(&format!("export function {name}(...args) {{\n"));
                    out.push_str("  const stack = captureStack();\n");
                    for caller in blocked_callers {
                        out.push_str(&format!(
                            "  if (stack.includes('{caller}')) return; // tracking path\n"
                        ));
                    }
                    out.push_str(&format!("  return original.{name}(...args);\n}}\n"));
                }
            }
        }
        out
    }
}
