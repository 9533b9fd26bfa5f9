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

use crate::events::{span_len, CallStack, RequestWillBeSent, Span, StackFrame, Text};
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

    fn blocks(&self, script: &PageScript) -> bool {
        self.blocked_script_urls.contains(script.origin.url())
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
/// clears all cookies and local state between consecutive crawls): what it
/// keeps from one load to the next is the request-id counter and buffers
/// that no load's output depends on.
#[derive(Debug, Clone, Default)]
pub struct PageLoadSimulator {
    next_request_id: u64,
    scratch: LoadScratch,
}

impl PageLoadSimulator {
    /// Create a simulator whose request ids start at `first_request_id`
    /// (lets the cluster keep ids globally unique without coordination).
    pub fn new(first_request_id: u64) -> Self {
        PageLoadSimulator {
            next_request_id: first_request_id,
            scratch: LoadScratch::default(),
        }
    }

    /// Number the next load's requests from `first_request_id`, keeping
    /// the buffers: one simulator loads a whole run of sites.
    pub(crate) fn restart_ids(&mut self, first_request_id: u64) {
        self.next_request_id = first_request_id;
    }

    /// Load a page without blocking anything.
    pub fn load(&mut self, site: &Website) -> PageLoadResult {
        self.load_with(site, &LoadOptions::unblocked())
    }

    /// Load a page under the given blocking options.
    ///
    /// The load writes every string its records name into one text buffer
    /// and every call site's frames, once each, into one frame buffer; the
    /// records hold spans of the two (see [`Text`] and [`CallStack`]). The
    /// walk itself works in the simulator's reused buffers, so a load
    /// allocates the two buffers, their two `Arc`s and the record vector,
    /// however many requests it issues.
    pub fn load_with(&mut self, site: &Website, options: &LoadOptions) -> PageLoadResult {
        let scratch = &mut self.scratch;
        scratch.clear();
        // The strings the load's frames and records share: one copy of the
        // page URL, of each script's URL and of each method's name.
        let page = scratch.write(&site.url);
        for script in &site.scripts {
            let url = script.origin.url();
            let url = if url == site.url {
                page
            } else {
                scratch.write(url)
            };
            scratch.scripts.push((url, scratch.methods.len()));
            for method in &script.methods {
                let name = scratch.write(&method.name);
                scratch.methods.push(name);
            }
        }
        // The span of no frames: the stack of a parser-initiated request.
        let no_stack: Span = (0, 0);

        // 1. The document itself.
        scratch
            .records
            .push((page, ResourceType::Document, no_stack));

        // 2. Parser-initiated document requests (no call stack). TrackerSift
        //    excludes these downstream; the browser still fetches them.
        for req in &site.non_script_requests {
            let url = scratch.write(&req.url);
            scratch.records.push((url, req.resource_type, no_stack));
        }

        // 3. Which scripts execute? A blocked script never runs. A script
        //    that is only injected by another (blocked) script never runs
        //    either.
        scratch.mark_executed(site, options);

        // 4. Dynamic script injection: a script listed in `loads_scripts`
        //    of an executing script is fetched *by* that script, so the
        //    fetch itself is a script-initiated request. Every fetch of one
        //    loader comes from its bootstrap frame: one stack per loader.
        for (loader_idx, loader) in site.scripts.iter().enumerate() {
            if !scratch.executed[loader_idx] {
                continue;
            }
            let mut bootstrap: Option<Span> = None;
            for &loaded_idx in &loader.loads_scripts {
                if !scratch.executed[loaded_idx] {
                    continue;
                }
                let stack = match bootstrap {
                    Some(stack) => stack,
                    None => {
                        let start = scratch.frames.len();
                        let frame = scratch.bootstrap_frame(site, loader_idx);
                        scratch.frames.push(frame);
                        *bootstrap.insert(scratch.stack_since(start))
                    }
                };
                let (loaded_url, _) = scratch.scripts[loaded_idx];
                scratch
                    .records
                    .push((loaded_url, ResourceType::Script, stack));
            }
        }

        // 5. Script execution: every method's planned requests, each with
        //    its call site's stack. A method's call sites differ only in
        //    `via_caller`, so a short list per method finds the stack a
        //    request shares.
        for (idx, script) in site.scripts.iter().enumerate() {
            if !scratch.executed[idx] {
                continue;
            }
            scratch.ancestor_stack(site, idx);
            for (method_idx, method) in script.methods.iter().enumerate() {
                if method.requests.is_empty() {
                    continue;
                }
                scratch.call_sites.clear();
                scratch.caller_chain(script, method_idx);
                for (request_idx, request) in method.requests.iter().enumerate() {
                    let via_caller = request.via_caller.as_deref();
                    let known = scratch.call_sites.iter().find(|&&(first, _)| {
                        method.requests[first].via_caller.as_deref() == via_caller
                    });
                    let stack = match known {
                        Some(&(_, stack)) => stack,
                        None => {
                            let stack = scratch.build_stack(script, idx, method_idx, via_caller);
                            scratch.call_sites.push((request_idx, stack));
                            stack
                        }
                    };
                    let url = scratch.write(&request.url);
                    scratch.records.push((url, request.resource_type, stack));
                }
            }
        }

        // 6. Broken features (used by the breakage analysis): a feature
        //    breaks when one of the scripts it requires did not execute.
        let broken_features = site
            .features
            .iter()
            .filter(|feature| {
                feature
                    .required_scripts
                    .iter()
                    .any(|&i| !scratch.executed[i])
            })
            .map(|feature| (feature.name.clone(), feature.importance))
            .collect();

        // 7. The records, over the load's two buffers.
        let text: Arc<Box<str>> = Arc::new(Box::from(scratch.text.as_str()));
        let frames: Arc<Vec<StackFrame>> = Arc::new(
            scratch
                .frames
                .iter()
                .map(|&(script_url, function_name)| StackFrame {
                    script_url: Text::span(&text, script_url),
                    function_name: Text::span(&text, function_name),
                })
                .collect(),
        );
        let top_level_url = Text::span(&text, page);
        let first_id = self.next_request_id;
        self.next_request_id += scratch.records.len() as u64;
        let requests = (first_id..)
            .zip(&scratch.records)
            .map(
                |(request_id, &(url, resource_type, stack))| RequestWillBeSent {
                    request_id,
                    top_level_url: top_level_url.clone(),
                    url: Text::span(&text, url),
                    resource_type,
                    call_stack: CallStack::span(&frames, stack),
                },
            )
            .collect();
        PageLoadResult {
            requests,
            broken_features,
        }
    }
}

/// A frame as spans of the load's text: script URL, function name.
type FrameSpans = (Span, Span);

/// The buffers a load works in, kept by the simulator and reused by its
/// next load: the text and frames the load copies into its own buffers at
/// the end, its records as spans, and the walk's per-script and per-method
/// lists. Nothing here outlives a load's output.
#[derive(Debug, Clone, Default)]
struct LoadScratch {
    /// Every string the load's records name, end to end.
    text: String,
    /// Every call site's frames, call site after call site.
    frames: Vec<FrameSpans>,
    /// Each record's URL, resource type and stack, in emission order.
    records: Vec<(Span, ResourceType, Span)>,
    /// Each script's URL and the index of its first method's name in
    /// `methods`, indexed as `Website::scripts`.
    scripts: Vec<(Span, usize)>,
    /// Every script's method names, script after script.
    methods: Vec<Span>,
    /// Whether each script executes; whether another script injects it.
    executed: Vec<bool>,
    injected: Vec<bool>,
    /// The bootstrap frames of the scripts that injected the current one.
    ancestors: Vec<FrameSpans>,
    /// The callers of the current method within its script, outermost last.
    caller_chain: Vec<usize>,
    /// The current method's call sites: the first request each `via_caller`
    /// was met on, and the stack it built.
    call_sites: Vec<(usize, Span)>,
}

impl LoadScratch {
    fn clear(&mut self) {
        self.text.clear();
        self.frames.clear();
        self.records.clear();
        self.scripts.clear();
        self.methods.clear();
    }

    /// Append `text` to the load's text and return its span.
    fn write(&mut self, text: &str) -> Span {
        let start = span_len(self.text.len());
        self.text.push_str(text);
        (start, span_len(text.len()))
    }

    /// The frames pushed since `start`, as one stack.
    fn stack_since(&self, start: usize) -> Span {
        (span_len(start), span_len(self.frames.len() - start))
    }

    /// The frame of method `method_idx` of script `script_idx`.
    fn frame(&self, script_idx: usize, method_idx: usize) -> FrameSpans {
        let (url, first_method) = self.scripts[script_idx];
        (url, self.methods[first_method + method_idx])
    }

    /// The frame an injecting call comes from: the script's first method
    /// (bootstrap), anonymous when it has none.
    fn bootstrap_frame(&self, site: &Website, script_idx: usize) -> FrameSpans {
        if site.scripts[script_idx].methods.is_empty() {
            (self.scripts[script_idx].0, (0, 0))
        } else {
            self.frame(script_idx, 0)
        }
    }

    /// Which scripts execute under the blocking options, into `executed`.
    /// A script executes when its own URL is not blocked AND (it is
    /// statically included, i.e. nothing loads it dynamically, OR at least
    /// one of its loaders executes).
    fn mark_executed(&mut self, site: &Website, options: &LoadOptions) {
        let n = site.scripts.len();
        self.injected.clear();
        self.injected.resize(n, false);
        for script in &site.scripts {
            for &loaded in &script.loads_scripts {
                if loaded < n {
                    self.injected[loaded] = true;
                }
            }
        }
        // Fixed point: start from the statically-included, unblocked
        // scripts, then propagate through dynamic injection.
        self.executed.clear();
        self.executed.extend(
            (site.scripts.iter().zip(&self.injected))
                .map(|(script, &injected)| !injected && !options.blocks(script)),
        );
        loop {
            let mut changed = false;
            for (loader, script) in site.scripts.iter().enumerate() {
                if !self.executed[loader] {
                    continue;
                }
                for &loaded in &script.loads_scripts {
                    if loaded < n
                        && !self.executed[loaded]
                        && !options.blocks(&site.scripts[loaded])
                    {
                        self.executed[loaded] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// The frames contributed by the scripts that (transitively) injected
    /// `idx`, into `ancestors`.
    fn ancestor_stack(&mut self, site: &Website, idx: usize) {
        self.ancestors.clear();
        let mut current = idx;
        for _ in 0..site.scripts.len() {
            // The bound is a cycle guard; the generator never creates cycles.
            let loader = (site.scripts.iter().enumerate())
                .find(|(l, s)| self.executed[*l] && s.loads_scripts.contains(&current))
                .map(|(l, _)| l);
            match loader {
                Some(l) => {
                    let frame = self.bootstrap_frame(site, l);
                    self.ancestors.push(frame);
                    current = l;
                }
                None => break,
            }
        }
    }

    /// The chain of callers of `method_idx` within the same script (a
    /// method whose `callees` list contains `method_idx`), outermost last,
    /// into `caller_chain`.
    fn caller_chain(&mut self, script: &PageScript, method_idx: usize) {
        self.caller_chain.clear();
        let mut current = method_idx;
        for _ in 0..script.methods.len() {
            match script
                .methods
                .iter()
                .position(|m| m.callees.contains(&current))
            {
                Some(caller) => {
                    self.caller_chain.push(caller);
                    current = caller;
                }
                None => break,
            }
        }
    }

    /// Append the call stack of one call site of method `method_idx` of
    /// script `idx` to `frames` and return its span: the method, the
    /// caller it was invoked through, its callers in the script, and the
    /// ancestors' frames from [`LoadScratch::ancestor_stack`].
    fn build_stack(
        &mut self,
        script: &PageScript,
        idx: usize,
        method_idx: usize,
        via_caller: Option<&str>,
    ) -> Span {
        let start = self.frames.len();
        // Innermost: the method issuing the request.
        self.frames.push(self.frame(idx, method_idx));
        // Per-request calling context: the method that invoked this
        // dispatcher for this particular request (shared-transport pattern).
        if let Some(caller) = via_caller {
            let frame = match script.methods.iter().position(|m| m.name == caller) {
                Some(pos) => self.frame(idx, pos),
                None => (self.scripts[idx].0, self.write(caller)),
            };
            self.frames.push(frame);
        }
        for &caller in &self.caller_chain {
            self.frames.push(self.frame(idx, caller));
        }
        self.frames.extend_from_slice(&self.ancestors);
        self.stack_since(start)
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
    fn every_string_of_a_load_lies_in_its_one_text_buffer() {
        let corpus = small_corpus();
        let mut sim = PageLoadSimulator::new(0);
        for site in &corpus.websites {
            let result = sim.load(site);
            let text = result.requests[0].top_level_url.buffer();
            let frames = result.requests[0].call_stack.buffer();
            let mut strings = 0;
            let mut stacks: Vec<&CallStack> = Vec::new();
            for request in &result.requests {
                let stack = &request.call_stack;
                assert!(Arc::ptr_eq(stack.buffer(), frames));
                if !stacks.iter().any(|known| known.same_span(stack)) {
                    stacks.push(stack);
                }
                let frame_strings = (request.call_stack.iter())
                    .flat_map(|frame| [&frame.script_url, &frame.function_name]);
                for string in [&request.top_level_url, &request.url]
                    .into_iter()
                    .chain(frame_strings)
                {
                    assert!(Arc::ptr_eq(string.buffer(), text), "{string}");
                    strings += 1;
                }
            }
            // The buffer holds each page, script and method string once,
            // however many frames name it, beside each request's own URL.
            let urls: usize = result.requests.iter().map(|r| r.url.len()).sum();
            let methods: usize = (site.scripts.iter())
                .flat_map(|s| &s.methods)
                .map(|m| m.name.len())
                .sum();
            let scripts: usize = (site.scripts.iter())
                .map(|s| s.origin.url())
                .filter(|url| *url != site.url)
                .map(str::len)
                .sum();
            let document = site.url.len();
            assert!(
                text.len() <= document + scripts + methods + urls,
                "{}",
                site.domain
            );
            assert!(strings > result.requests.len() * 3, "{}", site.domain);
            // The frame buffer holds each call site's stack once.
            let distinct: usize = stacks.iter().map(|stack| stack.len()).sum();
            assert_eq!(frames.len(), distinct, "{}", site.domain);
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
                        (planned, &issued.call_stack)
                    })
                    .collect();
                for (k, (a, a_frames)) in requests.iter().enumerate() {
                    for (b, b_frames) in &requests[k + 1..] {
                        let one_site = a.via_caller == b.via_caller;
                        assert_eq!(a_frames.same_span(b_frames), one_site, "{}", a.url);
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
                        &fetch.call_stack
                    })
                    .collect();
                assert!(stacks.windows(2).all(|w| w[0].same_span(w[1])));
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
