//! Labeling one request URL against the filter-list oracle: the step the
//! study's batch labeler and [`Sifter::apply`](crate::Sifter::apply)'s
//! raw-URL rows share, so the two cannot label one request two ways.

use filterlist::{FilterEngine, RequestLabel, RequestScratch, ResourceType};

/// Label one URL against the oracle and derive its attribution keys:
/// `(label, hostname, registrable domain)`, or `None` when the URL cannot be
/// parsed (the analysis excludes such requests). The hostname is the view's
/// (lower-cased) and the domain the suffix of it the view compared for
/// party-ness, both borrowed from `scratch` or from `url` itself.
pub fn label_url<'a>(
    engine: &FilterEngine,
    scratch: &'a mut RequestScratch,
    url: &'a str,
    source_hostname: &str,
    resource_type: ResourceType,
) -> Option<(RequestLabel, &'a str, &'a str)> {
    let request = scratch.view(url, source_hostname, resource_type)?;
    Some((
        engine.label_view(&request),
        request.url.hostname,
        request.domain,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_url_derives_label_hostname_and_domain() {
        let engine = FilterEngine::from_lists(&[(
            filterlist::ListKind::EasyList,
            "||tracker.io^$third-party\n@@||tracker.io/allow/\n",
        )]);
        let url = "https://px.tracker.io/t.js";
        let script = ResourceType::Script;
        let mut scratch = RequestScratch::new();
        assert_eq!(
            label_url(&engine, &mut scratch, url, "shop.com", script),
            Some((RequestLabel::Tracking, "px.tracker.io", "tracker.io"))
        );
        // Same URL from a first-party source: `$third-party` flips the label,
        // the attribution keys stay.
        assert_eq!(
            label_url(&engine, &mut scratch, url, "tracker.io", script),
            Some((RequestLabel::Functional, "px.tracker.io", "tracker.io"))
        );
        assert_eq!(
            label_url(&engine, &mut scratch, "notaurl", "shop.com", script),
            None
        );
        // The keys are the lower-cased hostname and what
        // `registrable_domain` makes of it, trailing dot and all.
        for url in [
            "HTTPS://PX.Tracker.IO./t.js",
            "https://static.bbc.co.uk/a.js",
            "//10.0.0.1:8080/x",
            "data:image/gif;base64,R0lGODlhAQAB",
        ] {
            let parsed = filterlist::ParsedUrl::parse(url).expect("a URL");
            let (_, hostname, domain) =
                label_url(&engine, &mut scratch, url, "shop.com", script).expect("a URL");
            assert_eq!(hostname, parsed.hostname, "{url}");
            assert_eq!(
                domain,
                filterlist::registrable_domain(&parsed.hostname),
                "{url}"
            );
        }
    }
}
