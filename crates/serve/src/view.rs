//! The fleet view: what `amsfi top` renders and what `amsfi status`
//! summarises — one serializable snapshot of every campaign's progress
//! and every worker's health, produced by the coordinator's single
//! aggregation path (`coordinator::fleet_view`).
//!
//! The encoding reuses the journal v2 idiom: one line per entity, a kind
//! token plus whitespace-separated `key=value` pairs with journal
//! [`escape`]/[`unescape`] on free text. Unknown keys and unknown line
//! kinds are skipped, so an older `amsfi top` tolerates a newer
//! coordinator. The whole view travels inside a `top` frame as one
//! escaped value (escaping is lossless under composition).

use amsfi_engine::journal::{escape, unescape};
use std::fmt::Write as _;

/// One campaign's aggregate progress as seen by the coordinator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopCampaign {
    /// Coordinator-assigned campaign id.
    pub id: u64,
    /// Catalog name.
    pub name: String,
    /// Distinct cases merged so far.
    pub merged: usize,
    /// Total cases (after any `--limit`).
    pub cases: usize,
    /// Shards fully completed.
    pub shards_done: usize,
    /// Shards currently leased to workers.
    pub shards_leased: usize,
    /// Shards waiting for a worker.
    pub shards_idle: usize,
    /// Observed merge rate over the sliding window, in millicases per
    /// second (x1000 fixed point — wire-safe without floats).
    pub rate_mcps: u64,
    /// Estimated milliseconds to completion from the observed rate;
    /// `None` when the rate window is empty or the campaign is done.
    pub eta_ms: Option<u64>,
    /// Shard indices currently flagged as stragglers (lane rate below
    /// k·median of the campaign's active leases).
    pub stragglers: Vec<usize>,
    /// Times a shard of this campaign was reclaimed and re-leased.
    pub resharded: u64,
}

/// One worker's health as seen by the coordinator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopWorker {
    /// Worker's self-chosen display name.
    pub name: String,
    /// True while the worker's socket is open.
    pub connected: bool,
    /// Leases currently held.
    pub leases: usize,
    /// Milliseconds since the last frame (heartbeat, record, anything)
    /// from this worker.
    pub last_seen_ms: u64,
    /// `no_work` replies sent to this worker — a growing count with zero
    /// leases means the worker is idle-polling in backoff.
    pub nowork: u64,
    /// Cases the worker reports having executed (from its shipped
    /// metrics snapshot; 0 until the first snapshot arrives).
    pub cases: u64,
    /// Worker-local p50 case latency, microseconds (log₂-bucket upper
    /// bound), from the shipped snapshot.
    pub p50_us: u64,
    /// Worker-local p99 case latency, microseconds.
    pub p99_us: u64,
    /// Replay-cache hits the worker reports (records re-streamed from
    /// cache after a reconnect instead of re-simulated).
    pub replay_hits: u64,
    /// Reconnects the worker reports having survived.
    pub reconnects: u64,
    /// Median live mutant lanes per word (log₂-bucket upper bound, golden
    /// lane excluded) across the worker's batch lock-step stops — how full
    /// its 63 mutant slots actually run. Zero until the worker ships a
    /// snapshot with `--batch` activity.
    pub lane_p50: u64,
}

/// The whole fleet: coordinator identity plus per-campaign and
/// per-worker aggregates. Everything `amsfi top` renders arrives in one
/// of these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopView {
    /// Coordinator epoch (bumped on each crash recovery).
    pub epoch: u64,
    /// True once every submitted campaign has completed.
    pub drained: bool,
    /// Coordinator uptime, milliseconds.
    pub uptime_ms: u64,
    /// Per-campaign aggregates, submission order.
    pub campaigns: Vec<TopCampaign>,
    /// Per-worker health, name order.
    pub workers: Vec<TopWorker>,
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_owned(), |n| n.to_string())
}

fn index_list(list: &[usize]) -> String {
    if list.is_empty() {
        "-".to_owned()
    } else {
        list.iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl TopView {
    /// Encodes the view as one line per entity (see module docs).
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(128 * (1 + self.campaigns.len() + self.workers.len()));
        let _ = writeln!(
            out,
            "fleet epoch={} drained={} uptime_ms={}",
            self.epoch,
            u8::from(self.drained),
            self.uptime_ms,
        );
        for c in &self.campaigns {
            let _ = writeln!(
                out,
                "campaign id={} name={} merged={} cases={} done={} leased={} idle={} \
                 rate_mcps={} eta_ms={} stragglers={} resharded={}",
                c.id,
                escape(&c.name),
                c.merged,
                c.cases,
                c.shards_done,
                c.shards_leased,
                c.shards_idle,
                c.rate_mcps,
                opt_u64(c.eta_ms),
                index_list(&c.stragglers),
                c.resharded,
            );
        }
        for w in &self.workers {
            let _ = writeln!(
                out,
                "worker name={} connected={} leases={} last_seen_ms={} nowork={} cases={} \
                 p50_us={} p99_us={} replay_hits={} reconnects={} lane_p50={}",
                escape(&w.name),
                u8::from(w.connected),
                w.leases,
                w.last_seen_ms,
                w.nowork,
                w.cases,
                w.p50_us,
                w.p99_us,
                w.replay_hits,
                w.reconnects,
                w.lane_p50,
            );
        }
        out
    }

    /// Decodes [`encode`](Self::encode)'s output. Unknown line kinds and
    /// unknown keys are skipped (forward compatibility); a line of a
    /// known kind with a missing or malformed required field fails the
    /// whole view (`None`) — a torn view must not render as a healthy
    /// but wrong fleet.
    pub fn parse(text: &str) -> Option<TopView> {
        let mut view = TopView::default();
        for line in text.lines() {
            let mut tokens = line.split_whitespace();
            let Some(kind) = tokens.next() else {
                continue;
            };
            let pairs: Vec<(&str, &str)> = tokens.filter_map(|t| t.split_once('=')).collect();
            let raw = |key: &str| pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
            let num = |key: &str| raw(key)?.parse::<u64>().ok();
            let text_of = |key: &str| unescape(raw(key)?);
            match kind {
                "fleet" => {
                    view.epoch = num("epoch")?;
                    view.drained = raw("drained")? == "1";
                    view.uptime_ms = num("uptime_ms")?;
                }
                "campaign" => view.campaigns.push(TopCampaign {
                    id: num("id")?,
                    name: text_of("name")?,
                    merged: num("merged")? as usize,
                    cases: num("cases")? as usize,
                    shards_done: num("done")? as usize,
                    shards_leased: num("leased")? as usize,
                    shards_idle: num("idle")? as usize,
                    rate_mcps: num("rate_mcps")?,
                    eta_ms: match raw("eta_ms")? {
                        "-" => None,
                        v => Some(v.parse().ok()?),
                    },
                    stragglers: match raw("stragglers")? {
                        "-" => Vec::new(),
                        v => v
                            .split(',')
                            .map(|s| s.parse::<usize>())
                            .collect::<Result<Vec<_>, _>>()
                            .ok()?,
                    },
                    resharded: num("resharded")?,
                }),
                "worker" => view.workers.push(TopWorker {
                    name: text_of("name")?,
                    connected: raw("connected")? == "1",
                    leases: num("leases")? as usize,
                    last_seen_ms: num("last_seen_ms")?,
                    nowork: num("nowork")?,
                    cases: num("cases")?,
                    p50_us: num("p50_us")?,
                    p99_us: num("p99_us")?,
                    replay_hits: num("replay_hits")?,
                    reconnects: num("reconnects")?,
                    // Added after the first wire version: default instead
                    // of failing so a newer `amsfi top` still renders an
                    // older coordinator's view.
                    lane_p50: num("lane_p50").unwrap_or(0),
                }),
                _ => {} // future line kinds are skipped
            }
        }
        Some(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TopView {
        TopView {
            epoch: 3,
            drained: false,
            uptime_ms: 42_000,
            campaigns: vec![TopCampaign {
                id: 1,
                name: "pll sweep|v2".to_owned(),
                merged: 17,
                cases: 100,
                shards_done: 1,
                shards_leased: 2,
                shards_idle: 5,
                rate_mcps: 2_500,
                eta_ms: Some(33_200),
                stragglers: vec![3, 7],
                resharded: 1,
            }],
            workers: vec![TopWorker {
                name: "host-9 (lab)".to_owned(),
                connected: true,
                leases: 1,
                last_seen_ms: 120,
                nowork: 0,
                cases: 55,
                p50_us: 1023,
                p99_us: 8191,
                replay_hits: 2,
                reconnects: 1,
                lane_p50: 31,
            }],
        }
    }

    #[test]
    fn view_round_trips() {
        let view = sample();
        assert_eq!(TopView::parse(&view.encode()), Some(view));
        assert_eq!(TopView::parse(""), Some(TopView::default()));
    }

    #[test]
    fn unknown_lines_and_keys_are_skipped() {
        let mut text = sample().encode();
        text.push_str("gpu name=h100 util=97\n");
        let with_extra_key = text.replace("epoch=3", "epoch=3 flux=9");
        let parsed = TopView::parse(&with_extra_key).expect("parses");
        assert_eq!(parsed, sample());
    }

    #[test]
    fn pre_lane_p50_worker_lines_still_parse() {
        // The lane_p50 key postdates the first wire version; a view from
        // an older coordinator must parse with the field defaulted.
        let text = sample().encode().replace(" lane_p50=31", "");
        let parsed = TopView::parse(&text).expect("parses");
        assert_eq!(parsed.workers[0].lane_p50, 0);
    }

    #[test]
    fn torn_views_fail_whole() {
        let text = sample().encode();
        assert!(TopView::parse(&text.replace("merged=17", "merged=")).is_none());
        assert!(TopView::parse(&text.replace(" cases=100", "")).is_none());
    }
}
