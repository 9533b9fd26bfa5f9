//! Surrogate script generation from a crawl (paper §5, "Blocking mixed
//! scripts"): the plan of each mixed script, with guard predicates derived
//! from the stack-divergence analysis of Figure 5. The plan types
//! ([`SurrogateScript`], [`MethodAction`]) belong to the serving engine,
//! whose committed counts build the same plans without stacks.

use crate::callstack::{build_call_graph, CallGraph};
use crate::label::LabeledRequest;
use std::collections::HashMap;
use trackersift_engine::{
    Classification, Counts, Granularity, HierarchyResult, MethodPlan, ResourceKey, SurrogateScript,
};

/// Generate surrogates for every mixed script in a hierarchy result.
///
/// `requests` must be the same labeled requests the hierarchy was computed
/// from; they provide the per-method request counts and the stacks for the
/// guard predicates.
pub(crate) fn generate_surrogates(
    result: &HierarchyResult,
    requests: &[LabeledRequest],
) -> Vec<SurrogateScript> {
    let script_level = result.level(Granularity::Script);
    let method_level = result.level(Granularity::Method);

    // Classification of each (script, method) key at the method level.
    let method_class: HashMap<&str, Classification> = method_level
        .resources
        .iter()
        .map(|r| (r.key.as_str(), r.classification))
        .collect();

    let mut surrogates = Vec::new();
    for script in script_level
        .resources
        .iter()
        .filter(|r| r.classification == Classification::Mixed)
    {
        // All requests initiated by this script (any target), grouped by method.
        let mut by_method: HashMap<&str, Vec<&LabeledRequest>> = HashMap::new();
        for request in requests
            .iter()
            .filter(|r| *r.initiator_script == *script.key)
        {
            by_method
                .entry(&*request.initiator_method)
                .or_default()
                .push(request);
        }

        let mut plans = Vec::new();
        let mut method_names: Vec<&&str> = by_method.keys().collect();
        method_names.sort();
        for method in method_names {
            let reqs = &by_method[*method];
            let key = ResourceKey::method_label(&script.key, method);
            let class = method_class.get(key.as_str()).copied().unwrap_or_else(|| {
                // The method never reached the method level (its requests
                // were attributed earlier); classify it directly from its
                // own requests.
                let mut counts = Counts::default();
                for r in reqs.iter() {
                    counts.record(r.is_tracking());
                }
                result
                    .thresholds
                    .classify(&counts)
                    .unwrap_or(Classification::Mixed)
            });
            let tracking = reqs.iter().filter(|r| r.is_tracking()).count() as u64;
            let functional = reqs.len() as u64 - tracking;
            let blocked_callers = if class == Classification::Mixed {
                let graph: CallGraph = build_call_graph(&script.key, method, reqs.iter().copied());
                graph
                    .divergence_points()
                    .into_iter()
                    .map(|(n, _)| n.label())
                    .collect()
            } else {
                Vec::new()
            };
            plans.push(MethodPlan {
                name: (*method).to_string(),
                classification: class,
                tracking,
                functional,
                blocked_callers,
            });
        }

        surrogates.push(SurrogateScript::from_method_plans(
            script.key.clone(),
            plans,
        ));
    }
    surrogates.sort_by(|a, b| a.script_url.cmp(&b.script_url));
    surrogates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchicalClassifier;
    use crate::label::LabeledRequest;
    use crawler::StackFrame;
    use filterlist::{RequestLabel, ResourceType};
    use trackersift_engine::MethodAction;

    fn req(
        hostname: &str,
        script: &str,
        method: &str,
        tracking: bool,
        extra_frame: Option<(&str, &str)>,
    ) -> LabeledRequest {
        let mut stack = vec![StackFrame::new(script, method)];
        if let Some((s, m)) = extra_frame {
            stack.push(StackFrame::new(s, m));
        }
        LabeledRequest {
            request_id: 0,
            top_level_url: "https://www.pub.com/".into(),
            site_domain: "pub.com".into(),
            url: format!("https://{hostname}/x").into(),
            domain: "hub.com".into(),
            hostname: hostname.into(),
            resource_type: ResourceType::Xhr,
            initiator_script: script.into(),
            initiator_method: method.into(),
            stack: stack.into(),
            async_boundary: None,
            label: if tracking {
                RequestLabel::Tracking
            } else {
                RequestLabel::Functional
            },
        }
    }

    /// One mixed script `bundle.js` with a tracking method, a functional
    /// method, and a mixed dispatcher whose tracking calls always come via a
    /// `pixel.js firePixel` caller.
    fn requests() -> Vec<LabeledRequest> {
        let host = "www.hub.com";
        let script = "https://www.pub.com/bundle.js";
        let mut v = Vec::new();
        for _ in 0..6 {
            v.push(req(host, script, "trackEvent", true, None));
            v.push(req(host, script, "render", false, None));
        }
        for _ in 0..3 {
            v.push(req(
                host,
                script,
                "xhr",
                true,
                Some(("https://www.pub.com/pixel.js", "firePixel")),
            ));
            v.push(req(
                host,
                script,
                "xhr",
                false,
                Some(("https://www.pub.com/app.js", "fetchData")),
            ));
        }
        v
    }

    #[test]
    fn surrogate_keeps_stubs_and_guards_as_expected() {
        let requests = requests();
        let result = HierarchicalClassifier::default().classify(&requests);
        let surrogates = generate_surrogates(&result, &requests);
        assert_eq!(surrogates.len(), 1);
        let s = &surrogates[0];
        assert_eq!(s.kept(), 1, "{:?}", s.methods);
        assert_eq!(s.stubbed(), 1, "{:?}", s.methods);
        assert_eq!(s.guarded(), 1, "{:?}", s.methods);
        // The guard blocks the pixel.js caller.
        let guard = s
            .methods
            .iter()
            .find_map(|(n, a)| match a {
                MethodAction::Guard { blocked_callers } if n == "xhr" => {
                    Some(blocked_callers.clone())
                }
                _ => None,
            })
            .unwrap();
        assert!(guard.iter().any(|c| c.contains("pixel.js")));
        assert!(s.suppressed_tracking_requests >= 9);
        assert!(s.preserved_functional_requests >= 9);
    }

    #[test]
    fn render_mentions_every_method() {
        let requests = requests();
        let result = HierarchicalClassifier::default().classify(&requests);
        let surrogates = generate_surrogates(&result, &requests);
        let text = surrogates[0].render();
        for (name, _) in &surrogates[0].methods {
            assert!(text.contains(name), "render misses {name}");
        }
        assert!(text.contains("tracking removed"));
    }

    #[test]
    fn purely_functional_scripts_get_no_surrogate() {
        let host = "www.hub.com";
        let reqs: Vec<LabeledRequest> = (0..10)
            .map(|_| req(host, "https://www.pub.com/app.js", "fetch", false, None))
            .collect();
        let result = HierarchicalClassifier::default().classify(&reqs);
        assert!(generate_surrogates(&result, &reqs).is_empty());
    }
}
