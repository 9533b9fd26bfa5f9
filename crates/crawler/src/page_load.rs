//! Simulated page loads.
//!
//! [`PageLoadSimulator`] plays the role of the instrumented Chrome instance:
//! it walks a [`websim::Website`] description and produces the
//! `requestWillBeSent` records that loading the page would generate —
//! parser-initiated document requests without call stacks, dynamically
//! injected script fetches, and every script-initiated request with its full
//! initiator call stack (the issuing script's frames, then the frames of
//! the scripts that injected it).
//!
//! Blocking is modelled the way a content blocker blocks a script at
//! runtime: a blocked script never executes (none of its requests are
//! issued and the features depending on it break). This is what the
//! breakage analysis (paper Table 3) exercises.

use crate::events::{CallStack, RequestWillBeSent, StackFrame};
use filterlist::ResourceType;
use std::collections::HashSet;
use std::sync::Arc;
use websim::{FeatureImportance, PageScript, Website};

/// Options controlling one page load.
#[derive(Debug, Clone, Default)]
pub struct LoadOptions {
    /// Script URLs that are blocked (the script does not execute at all).
    pub(crate) blocked_script_urls: HashSet<String>,
}

impl LoadOptions {
    /// No blocking: the control condition.
    pub(crate) fn unblocked() -> Self {
        LoadOptions::default()
    }

    /// Block the given script URLs: the treatment condition of the paper's
    /// breakage analysis.
    pub fn blocking_scripts<I, S>(urls: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        LoadOptions {
            blocked_script_urls: urls.into_iter().map(Into::into).collect(),
        }
    }
}

/// The outcome of loading one page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageLoadResult {
    /// Every request, in emission order.
    pub(crate) requests: Vec<RequestWillBeSent>,
    /// Names of features that broke (a required script did not execute),
    /// with their importance.
    pub broken_features: Vec<(String, FeatureImportance)>,
}

/// The page-load simulator. Stateless between loads (the paper's crawler
/// clears all cookies and local state between consecutive crawls).
#[derive(Debug, Clone, Default)]
pub struct PageLoadSimulator {
    next_request_id: u64,
}

impl PageLoadSimulator {
    /// Create a simulator whose request ids start at `first_request_id`
    /// (lets the cluster keep ids globally unique without coordination).
    pub fn new(first_request_id: u64) -> Self {
        PageLoadSimulator {
            next_request_id: first_request_id,
        }
    }

    /// Load a page without blocking anything.
    pub fn load(&mut self, site: &Website) -> PageLoadResult {
        self.load_with(site, &LoadOptions::unblocked())
    }

    /// Load a page under the given blocking options.
    ///
    /// Each call site's stack is built once, in one allocation, and shared
    /// by every request the call site issues (see [`crate::CallStack`]).
    pub fn load_with(&mut self, site: &Website, options: &LoadOptions) -> PageLoadResult {
        let mut result = PageLoadResult::default();
        let injections: usize = site.scripts.iter().map(|s| s.loads_scripts.len()).sum();
        result.requests.reserve(
            1 + site.non_script_requests.len() + injections + site.script_initiated_request_count(),
        );
        // The strings this load's records share: every request points at one
        // copy of the page URL, every frame at one copy of its script's URL
        // and of its method's name.
        let page: Arc<str> = Arc::from(site.url.as_str());
        let scripts: Vec<ScriptStrings> = site
            .scripts
            .iter()
            .map(|script| ScriptStrings::of(script, &page))
            .collect();
        let no_stack = CallStack::default();

        // 1. The document itself.
        self.emit(
            &mut result,
            Arc::clone(&page),
            &page,
            ResourceType::Document,
            no_stack.clone(),
        );

        // 2. Parser-initiated document requests (no call stack). TrackerSift
        //    excludes these downstream; the browser still fetches them.
        for req in &site.non_script_requests {
            self.emit(
                &mut result,
                Arc::from(req.url.as_str()),
                &page,
                req.resource_type,
                no_stack.clone(),
            );
        }

        // 3. Which scripts execute? A blocked script never runs. A script
        //    that is only injected by another (blocked) script never runs
        //    either.
        let executed = executed_scripts(site, options);

        // 4. Dynamic script injection: a script listed in `loads_scripts`
        //    of an executing script is fetched *by* that script, so the
        //    fetch itself is a script-initiated request. Every fetch of one
        //    loader comes from its bootstrap frame: one stack per loader.
        for (loader_idx, loader) in site.scripts.iter().enumerate() {
            if !executed[loader_idx] {
                continue;
            }
            let mut bootstrap: Option<CallStack> = None;
            for &loaded_idx in &loader.loads_scripts {
                if !executed[loaded_idx] {
                    continue;
                }
                let loaded_url = &scripts[loaded_idx].url;
                let stack = bootstrap.get_or_insert_with(|| CallStack {
                    frames: Arc::from([scripts[loader_idx].bootstrap_frame()]),
                });
                self.emit(
                    &mut result,
                    Arc::clone(loaded_url),
                    &page,
                    ResourceType::Script,
                    stack.clone(),
                );
            }
        }

        // 5. Script execution: every method's planned requests, each with
        //    its call site's stack. A method's call sites differ only in
        //    `via_caller`, so a short list per method finds the stack a
        //    request shares.
        let mut call_sites: Vec<(Option<&str>, CallStack)> = Vec::new();
        let mut frames: Vec<StackFrame> = Vec::new();
        for (idx, script) in site.scripts.iter().enumerate() {
            if !executed[idx] {
                continue;
            }
            let ancestor_frames = ancestor_stack(site, idx, &executed, &scripts);
            for (method_idx, method) in script.methods.iter().enumerate() {
                if method.requests.is_empty() {
                    continue;
                }
                call_sites.clear();
                let caller_chain = caller_chain(script, method_idx);
                for request in &method.requests {
                    let via_caller = request.via_caller.as_deref();
                    let known = call_sites.iter().find(|(via, _)| *via == via_caller);
                    let stack = match known {
                        Some((_, stack)) => stack.clone(),
                        None => {
                            let stack = build_stack(
                                &mut frames,
                                &scripts[idx],
                                method_idx,
                                &caller_chain,
                                &ancestor_frames,
                                via_caller,
                            );
                            call_sites.push((via_caller, stack.clone()));
                            stack
                        }
                    };
                    self.emit(
                        &mut result,
                        Arc::from(request.url.as_str()),
                        &page,
                        request.resource_type,
                        stack,
                    );
                }
            }
        }

        // 6. Broken features (used by the breakage analysis): a feature
        //    breaks when one of the scripts it requires did not execute.
        for feature in &site.features {
            if feature.required_scripts.iter().any(|&i| !executed[i]) {
                result
                    .broken_features
                    .push((feature.name.clone(), feature.importance));
            }
        }
        result
    }

    fn emit(
        &mut self,
        result: &mut PageLoadResult,
        url: Arc<str>,
        page: &Arc<str>,
        resource_type: ResourceType,
        call_stack: CallStack,
    ) {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        result.requests.push(RequestWillBeSent {
            request_id,
            top_level_url: Arc::clone(page),
            url,
            resource_type,
            call_stack,
        });
    }
}

/// One script's URL and method names, allocated once per load; the stack
/// frames built from them clone pointers.
struct ScriptStrings {
    url: Arc<str>,
    /// Indexed as `PageScript::methods`.
    methods: Vec<Arc<str>>,
}

impl ScriptStrings {
    /// An inline script reports the document's URL: it shares the page's
    /// copy.
    fn of(script: &PageScript, page: &Arc<str>) -> Self {
        let url = script.origin.url();
        ScriptStrings {
            url: if url == &**page {
                Arc::clone(page)
            } else {
                Arc::from(url)
            },
            methods: script
                .methods
                .iter()
                .map(|m| Arc::from(m.name.as_str()))
                .collect(),
        }
    }

    /// The frame of this script's method `method_idx`.
    fn frame(&self, method_idx: usize) -> StackFrame {
        StackFrame {
            script_url: Arc::clone(&self.url),
            function_name: Arc::clone(&self.methods[method_idx]),
        }
    }

    /// The frame an injecting call comes from: the script's first method
    /// (bootstrap), anonymous when it has none.
    fn bootstrap_frame(&self) -> StackFrame {
        let function_name = self
            .methods
            .first()
            .map_or_else(|| Arc::from(""), Arc::clone);
        StackFrame {
            script_url: Arc::clone(&self.url),
            function_name,
        }
    }
}

/// Which scripts execute under the blocking options. A script executes when
/// its own URL is not blocked AND (it is statically included, i.e. nothing
/// loads it dynamically, OR at least one of its loaders executes).
fn executed_scripts(site: &Website, options: &LoadOptions) -> Vec<bool> {
    let n = site.scripts.len();
    // loaded_by[i] = scripts that dynamically inject script i.
    let mut loaded_by: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (loader, script) in site.scripts.iter().enumerate() {
        for &loaded in &script.loads_scripts {
            if loaded < n {
                loaded_by[loaded].push(loader);
            }
        }
    }
    // Fixed-point: start by assuming statically-included, unblocked scripts
    // run, then propagate through dynamic injection.
    let mut executed = vec![false; n];
    for (i, script) in site.scripts.iter().enumerate() {
        if loaded_by[i].is_empty() && !options.blocked_script_urls.contains(script.origin.url()) {
            executed[i] = true;
        }
    }
    loop {
        let mut changed = false;
        for (i, script) in site.scripts.iter().enumerate() {
            if executed[i] || loaded_by[i].is_empty() {
                continue;
            }
            if options.blocked_script_urls.contains(script.origin.url()) {
                continue;
            }
            if loaded_by[i].iter().any(|&l| executed[l]) {
                executed[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    executed
}

/// Frames contributed by the scripts that (transitively) injected `idx`.
fn ancestor_stack(
    site: &Website,
    idx: usize,
    executed: &[bool],
    scripts: &[ScriptStrings],
) -> Vec<StackFrame> {
    let mut frames = Vec::new();
    let mut current = idx;
    let mut guard = 0;
    loop {
        guard += 1;
        if guard > site.scripts.len() {
            break; // cycle guard; generator never creates cycles
        }
        let loader = site
            .scripts
            .iter()
            .enumerate()
            .find(|(l, s)| executed[*l] && s.loads_scripts.contains(&current))
            .map(|(l, _)| l);
        match loader {
            Some(l) => {
                frames.push(scripts[l].bootstrap_frame());
                current = l;
            }
            None => break,
        }
    }
    frames
}

/// The chain of callers of `method_idx` within the same script (a method
/// whose `callees` list contains `method_idx`), outermost last.
fn caller_chain(script: &PageScript, method_idx: usize) -> Vec<usize> {
    let mut chain = Vec::new();
    let mut current = method_idx;
    let mut guard = 0;
    loop {
        guard += 1;
        if guard > script.methods.len() {
            break;
        }
        match script
            .methods
            .iter()
            .enumerate()
            .find(|(_, m)| m.callees.contains(&current))
        {
            Some((caller, _)) => {
                chain.push(caller);
                current = caller;
            }
            None => break,
        }
    }
    chain
}

/// Build the call stack of one call site of method `method_idx` of
/// `script`, in one allocation: the frames are gathered in `frames`, a
/// buffer the load reuses, and moved into the shared slice, which leaves
/// the buffer empty with its capacity kept.
fn build_stack(
    frames: &mut Vec<StackFrame>,
    script: &ScriptStrings,
    method_idx: usize,
    caller_chain: &[usize],
    ancestor_frames: &[StackFrame],
    via_caller: Option<&str>,
) -> CallStack {
    frames.clear();
    // Innermost: the method issuing the request.
    frames.push(script.frame(method_idx));
    // Per-request calling context: the method that invoked this dispatcher
    // for this particular request (shared-transport pattern).
    if let Some(caller) = via_caller {
        match script.methods.iter().position(|name| &**name == caller) {
            Some(pos) => frames.push(script.frame(pos)),
            None => frames.push(StackFrame::new(Arc::clone(&script.url), caller)),
        }
    }
    frames.extend(caller_chain.iter().map(|&caller| script.frame(caller)));
    frames.extend(ancestor_frames.iter().cloned());
    CallStack {
        frames: frames.drain(..).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websim::{CorpusGenerator, CorpusProfile, ScriptArchetype};

    fn small_corpus() -> websim::WebCorpus {
        CorpusGenerator::generate(&CorpusProfile::small().with_sites(40), 11)
    }

    fn script_initiated(result: &PageLoadResult) -> usize {
        result
            .requests
            .iter()
            .filter(|r| r.is_script_initiated())
            .count()
    }

    #[test]
    fn every_planned_script_request_is_emitted_when_unblocked() {
        let corpus = small_corpus();
        let mut sim = PageLoadSimulator::new(0);
        for site in &corpus.websites {
            let result = sim.load(site);
            assert_eq!(
                script_initiated(&result),
                site.script_initiated_request_count() + dynamic_injections(site),
                "site {}",
                site.domain
            );
        }
    }

    fn dynamic_injections(site: &Website) -> usize {
        site.scripts.iter().map(|s| s.loads_scripts.len()).sum()
    }

    #[test]
    fn request_ids_are_unique_and_monotonic() {
        let corpus = small_corpus();
        let mut sim = PageLoadSimulator::new(0);
        let mut last = None;
        for site in &corpus.websites {
            for req in sim.load(site).requests.iter().map(|r| r.request_id) {
                if let Some(prev) = last {
                    assert!(req > prev);
                }
                last = Some(req);
            }
        }
    }

    #[test]
    fn one_load_shares_one_copy_of_each_page_script_and_method_string() {
        let corpus = small_corpus();
        let mut sim = PageLoadSimulator::new(0);
        for site in &corpus.websites {
            let result = sim.load(site);
            let page = &result.requests[0].top_level_url;
            for request in &result.requests {
                assert!(Arc::ptr_eq(&request.top_level_url, page));
            }
            // As many script-URL allocations as script URLs, and no more
            // method-name allocations than the site's scripts have methods,
            // however many frames name them.
            let frames = || {
                result
                    .requests
                    .iter()
                    .flat_map(|r| r.call_stack.frames.iter())
            };
            let allocations = |field: fn(&StackFrame) -> &Arc<str>| {
                let pointers: HashSet<*const u8> =
                    frames().map(|f| Arc::as_ptr(field(f)).cast()).collect();
                pointers.len()
            };
            let urls: HashSet<&str> = frames().map(|f| &*f.script_url).collect();
            assert_eq!(allocations(|f| &f.script_url), urls.len());
            let methods: usize = site.scripts.iter().map(|s| s.methods.len()).sum();
            assert!(allocations(|f| &f.function_name) <= methods);
            assert!(frames().count() > methods, "{}", site.domain);
        }
    }

    #[test]
    fn one_call_site_shares_one_stack_within_a_load() {
        let corpus = small_corpus();
        let mut sim = PageLoadSimulator::new(0);
        let (mut shared, mut split_by_caller) = (0, 0);
        for site in &corpus.websites {
            let result = sim.load(site);
            // Unblocked, every script executes and the script-issued
            // requests close the load, in planned order.
            let planned = site.script_initiated_request_count();
            let mut issued = result.requests[result.requests.len() - planned..].iter();
            for method in site.scripts.iter().flat_map(|s| &s.methods) {
                let requests: Vec<_> = method
                    .requests
                    .iter()
                    .map(|planned| {
                        let issued = issued.next().expect("one record per planned request");
                        assert_eq!(*issued.url, planned.url);
                        (planned, &issued.call_stack.frames)
                    })
                    .collect();
                for (k, (a, a_frames)) in requests.iter().enumerate() {
                    for (b, b_frames) in &requests[k + 1..] {
                        let one_site = a.via_caller == b.via_caller;
                        assert_eq!(Arc::ptr_eq(a_frames, b_frames), one_site, "{}", a.url);
                        if one_site {
                            shared += 1;
                        } else {
                            split_by_caller += 1;
                        }
                    }
                }
            }
            // Every script one loader injects is fetched from the same stack;
            // the fetches follow the parser-initiated requests, loader by
            // loader.
            let mut fetches = result.requests[1 + site.non_script_requests.len()..].iter();
            for loader in &site.scripts {
                let stacks: Vec<_> = loader
                    .loads_scripts
                    .iter()
                    .map(|&loaded| {
                        let fetch = fetches.next().expect("one fetch per injection");
                        assert_eq!(*fetch.url, *site.scripts[loaded].origin.url());
                        &fetch.call_stack.frames
                    })
                    .collect();
                assert!(stacks.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])));
            }
        }
        assert!(
            shared > 0 && split_by_caller > 0,
            "{shared} shared, {split_by_caller} split by via_caller"
        );
    }

    #[test]
    fn document_requests_have_no_call_stack() {
        let corpus = small_corpus();
        let mut sim = PageLoadSimulator::new(0);
        let site = &corpus.websites[0];
        let result = sim.load(site);
        let doc_reqs: Vec<_> = result
            .requests
            .iter()
            .filter(|r| site.non_script_requests.iter().any(|p| *p.url == *r.url))
            .collect();
        assert!(!doc_reqs.is_empty());
        assert!(doc_reqs.iter().all(|r| !r.is_script_initiated()));
    }

    #[test]
    fn injected_scripts_carry_their_loader_in_the_stack() {
        let corpus = small_corpus();
        let mut sim = PageLoadSimulator::new(0);
        for site in &corpus.websites {
            let loaders: Vec<(usize, &PageScript)> = site
                .scripts
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.loads_scripts.is_empty())
                .collect();
            if loaders.is_empty() {
                continue;
            }
            let result = sim.load(site);
            for (_, loader) in loaders {
                for &loaded in &loader.loads_scripts {
                    let loaded_url = site.scripts[loaded].origin.url();
                    // Every request issued by the loaded script must have the
                    // loader somewhere in its ancestral scripts.
                    let loaded_requests: Vec<_> = result
                        .requests
                        .iter()
                        .filter(|r| r.call_stack.initiator_script() == Some(loaded_url))
                        .collect();
                    for req in loaded_requests {
                        assert!(
                            req.call_stack
                                .frames
                                .iter()
                                .any(|f| &*f.script_url == loader.origin.url()),
                            "request {} lacks loader ancestry",
                            req.url
                        );
                    }
                }
            }
            return; // one site with loaders is enough
        }
    }

    #[test]
    fn blocking_a_script_suppresses_its_requests_and_breaks_features() {
        let corpus = small_corpus();
        let mut sim = PageLoadSimulator::new(0);
        // Find a site with a feature depending on its first script.
        let site = corpus
            .websites
            .iter()
            .find(|s| s.features.iter().any(|f| f.required_scripts.contains(&0)))
            .expect("some site depends on its app script");
        let app_url = site.scripts[0].origin.url().to_string();

        let control = sim.load(site);
        let treatment = sim.load_with(site, &LoadOptions::blocking_scripts([app_url.clone()]));

        assert!(control.broken_features.is_empty());
        assert!(!treatment.broken_features.is_empty());
        assert!(script_initiated(&treatment) < script_initiated(&control));
        // None of the blocked script's requests were sent.
        assert!(treatment
            .requests
            .iter()
            .all(|r| r.call_stack.initiator_script() != Some(app_url.as_str())));
    }

    #[test]
    fn mixed_scripts_issue_both_kinds_of_planned_intent() {
        // Sanity link between websim ground truth and the simulator output.
        let corpus = small_corpus();
        let site = corpus
            .websites
            .iter()
            .find(|s| {
                s.scripts
                    .iter()
                    .any(|sc| sc.archetype == ScriptArchetype::Mixed)
            })
            .expect("corpus contains mixed scripts");
        let mixed = site
            .scripts
            .iter()
            .find(|sc| sc.archetype == ScriptArchetype::Mixed)
            .unwrap();
        let mut sim = PageLoadSimulator::new(0);
        let result = sim.load(site);
        let urls: Vec<&str> = mixed
            .planned_requests()
            .map(|(_, r)| r.url.as_str())
            .collect();
        let emitted = result
            .requests
            .iter()
            .filter(|r| urls.contains(&&*r.url))
            .count();
        assert_eq!(emitted, urls.len());
    }
}
