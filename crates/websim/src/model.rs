//! Core data model of the synthetic web corpus.
//!
//! A [`WebCorpus`] is the stand-in for the 100K live websites the paper
//! crawls: a set of [`Website`]s, each fully describing what happens when
//! its landing page loads — which scripts run, which methods inside those
//! scripts issue which network requests, which page features depend on
//! which scripts. The `crawler` crate "loads" these descriptions and emits
//! DevTools-style events; the `trackersift` crate analyses the result. The
//! ground-truth `Purpose` carried on each planned request is **never used by
//! the classifier** — it exists so tests can check that the filter-list
//! oracle behaves like the intent it encodes.

use filterlist::ResourceType;
use std::fmt;

/// Ground-truth intent of a planned request (generator-side knowledge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// Advertising / tracking behaviour.
    Tracking,
    /// Legitimate site functionality.
    Functional,
}

impl fmt::Display for Purpose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Purpose::Tracking => f.write_str("tracking"),
            Purpose::Functional => f.write_str("functional"),
        }
    }
}

/// A network request a script method will issue during the page load: the
/// URL, type and intent of the request, and the in-script caller it comes
/// through. The crawler derives the whole call stack from the method and
/// that caller; the scripts that injected the issuing script follow its
/// own frames in every stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedRequest {
    /// Full request URL.
    pub url: String,
    /// Resource type the browser would report.
    pub resource_type: ResourceType,
    /// Ground-truth intent (not visible to the classifier).
    pub intent: Purpose,
    /// Name of the in-script method that *called into* the issuing method
    /// for this particular request (if any). This models shared dispatcher
    /// methods (`Pa.xhrRequest`) whose tracking and functional invocations
    /// arrive via different callers — the calling-context signal the paper's
    /// Figure 5 call-stack analysis exploits. The crawler inserts the caller
    /// as an extra stack frame directly above the issuing method.
    pub via_caller: Option<String>,
}

/// A method (named function) inside a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptMethodSpec {
    /// JavaScript-style method name (e.g. `sendBeacon`, `Pa.xhrRequest`).
    pub name: String,
    /// Requests this method issues directly.
    pub requests: Vec<PlannedRequest>,
    /// Indices (within the same script) of methods this method calls before
    /// they issue their own requests — used to build deeper call stacks.
    pub callees: Vec<usize>,
}

impl ScriptMethodSpec {
    /// A method with no requests and no callees.
    pub(crate) fn empty(name: impl Into<String>) -> Self {
        ScriptMethodSpec {
            name: name.into(),
            requests: Vec::new(),
            callees: Vec::new(),
        }
    }
}

/// How a script arrived on the page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptOrigin {
    /// A classic `<script src="...">` external script.
    External {
        /// Script URL.
        url: String,
    },
    /// An inline `<script>...</script>` block; its "URL" for stack purposes
    /// is the page URL itself (what DevTools reports).
    Inline {
        /// Page URL the snippet is embedded in.
        page_url: String,
        /// Position of the inline block on the page (1-based).
        position: usize,
    },
    /// A bundler-produced script (webpack/browserify style) that merged
    /// several modules into one URL.
    Bundled {
        /// Bundle URL (e.g. `app.9115af43.js`).
        url: String,
        /// Names of the modules folded into the bundle (provenance).
        modules: Vec<String>,
    },
}

impl ScriptOrigin {
    /// The URL DevTools would report as the script's source.
    pub fn url(&self) -> &str {
        match self {
            ScriptOrigin::External { url } => url,
            ScriptOrigin::Inline { page_url, .. } => page_url,
            ScriptOrigin::Bundled { url, .. } => url,
        }
    }
}

/// Generator-side expectation of how a script should end up classified.
/// Used only for corpus statistics and tests, never by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScriptArchetype {
    /// Issues only tracking requests (analytics tags, ad loaders).
    Tracking,
    /// Issues only functional requests (libraries, app code).
    Functional,
    /// Intentionally combines both (bundles, inlined pixels, SDKs).
    Mixed,
}

/// A script as it exists on one particular page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageScript {
    /// Where the script came from.
    pub origin: ScriptOrigin,
    /// The methods defined by the script.
    pub methods: Vec<ScriptMethodSpec>,
    /// Indices of other page scripts this script dynamically injects
    /// (tag-manager style); the injected scripts' requests carry this
    /// script in their ancestral call stack.
    pub loads_scripts: Vec<usize>,
    /// Generator-side archetype.
    pub archetype: ScriptArchetype,
}

impl PageScript {
    /// Total planned requests across all methods of this script.
    pub(crate) fn planned_request_count(&self) -> usize {
        self.methods.iter().map(|m| m.requests.len()).sum()
    }

    /// Iterate over all planned requests with their method index.
    pub fn planned_requests(&self) -> impl Iterator<Item = (usize, &PlannedRequest)> {
        self.methods
            .iter()
            .enumerate()
            .flat_map(|(i, m)| m.requests.iter().map(move |r| (i, r)))
    }
}

/// How important a page feature is — the paper's breakage rubric
/// distinguishes core functionality (search bar, navigation, images) from
/// secondary functionality (comments, widgets, video players).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureImportance {
    /// Core functionality: navigation, search, page images, page load itself.
    Core,
    /// Secondary functionality: comments, media widgets, icons.
    Secondary,
}

/// A user-visible page feature and the scripts it needs to work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feature {
    /// Human-readable feature name (e.g. "image carousel", "comment section").
    pub name: String,
    /// Core vs secondary.
    pub importance: FeatureImportance,
    /// Indices of page scripts the feature requires; if any is blocked the
    /// feature breaks.
    pub required_scripts: Vec<usize>,
}

/// One website (landing page) in the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Website {
    /// Popularity rank within the corpus (0 = most popular).
    pub rank: usize,
    /// Registrable domain (eTLD+1) of the site.
    pub domain: String,
    /// Hostname the landing page is served from.
    pub hostname: String,
    /// Full landing-page URL.
    pub url: String,
    /// Scripts that execute during the page load.
    pub scripts: Vec<PageScript>,
    /// Page features and their script dependencies (for breakage analysis).
    pub features: Vec<Feature>,
    /// Requests issued by the document itself (HTML-attribute images,
    /// stylesheets); TrackerSift excludes these from analysis because they
    /// are not script-initiated, but the crawler still observes them.
    pub non_script_requests: Vec<PlannedRequest>,
}

impl Website {
    /// Total script-initiated requests the page will issue.
    pub fn script_initiated_request_count(&self) -> usize {
        self.scripts.iter().map(|s| s.planned_request_count()).sum()
    }
}

/// The whole corpus: websites plus the third-party ecosystem they embed.
#[derive(Debug, Clone)]
pub struct WebCorpus {
    /// Every website in the corpus (index = rank).
    pub websites: Vec<Website>,
    /// The third-party ecosystem.
    pub ecosystem: crate::ecosystem::Ecosystem,
    /// Seed used to generate the corpus (reproducibility).
    pub seed: u64,
}

impl WebCorpus {
    /// Total script-initiated requests across the corpus.
    pub fn total_script_initiated_requests(&self) -> usize {
        self.websites
            .iter()
            .map(|w| w.script_initiated_request_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planned(url: &str, intent: Purpose) -> PlannedRequest {
        PlannedRequest {
            url: url.to_string(),
            resource_type: ResourceType::Xhr,
            intent,
            via_caller: None,
        }
    }

    #[test]
    fn script_origin_url_reporting() {
        let ext = ScriptOrigin::External {
            url: "https://cdn.x.com/a.js".into(),
        };
        let inl = ScriptOrigin::Inline {
            page_url: "https://site.com/".into(),
            position: 2,
        };
        let bun = ScriptOrigin::Bundled {
            url: "https://site.com/app.abc.js".into(),
            modules: vec!["pixel".into()],
        };
        assert_eq!(ext.url(), "https://cdn.x.com/a.js");
        assert_eq!(inl.url(), "https://site.com/");
        assert_eq!(bun.url(), "https://site.com/app.abc.js");
    }

    #[test]
    fn planned_request_counting() {
        let script = PageScript {
            origin: ScriptOrigin::External {
                url: "https://cdn.x.com/a.js".into(),
            },
            methods: vec![
                ScriptMethodSpec {
                    name: "init".into(),
                    requests: vec![planned("https://a.com/x", Purpose::Functional)],
                    callees: vec![1],
                },
                ScriptMethodSpec {
                    name: "send".into(),
                    requests: vec![
                        planned("https://t.com/collect?v=1&x=1", Purpose::Tracking),
                        planned("https://t.com/collect?v=1&x=2", Purpose::Tracking),
                    ],
                    callees: vec![],
                },
            ],
            loads_scripts: vec![],
            archetype: ScriptArchetype::Mixed,
        };
        assert_eq!(script.planned_request_count(), 3);
        let by_method: Vec<usize> = script.planned_requests().map(|(i, _)| i).collect();
        assert_eq!(by_method, vec![0, 1, 1]);
    }

    #[test]
    fn website_counters() {
        let site = Website {
            rank: 0,
            domain: "example.com".into(),
            hostname: "www.example.com".into(),
            url: "https://www.example.com/".into(),
            scripts: vec![],
            features: vec![],
            non_script_requests: vec![planned(
                "https://img.example.com/logo.png",
                Purpose::Functional,
            )],
        };
        assert_eq!(site.script_initiated_request_count(), 0);
    }
}
