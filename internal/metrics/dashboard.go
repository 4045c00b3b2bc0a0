package metrics

// dashboardHTML is the /dashboard page: one self-contained HTML document
// (no external assets) that polls the existing JSON endpoints — /metrics
// always, /shards and /trace when the process is a sweep coordinator —
// and renders stat tiles, the histogram summaries, the aggregated engine
// hot-path counters and per-worker fleet progress. The fleet section
// stays hidden unless /shards answers, so the same page serves a local
// sweep and a coordinator.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>rumr sweep dashboard</title>
<style>
  :root {
    --surface: #ffffff; --panel: #f6f7f9; --border: #e1e4e8;
    --ink: #1f2328; --ink-2: #57606a; --ink-3: #8b949e;
    --accent: #0969da; --accent-soft: #d7e6f7;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      --surface: #0d1117; --panel: #161b22; --border: #30363d;
      --ink: #e6edf3; --ink-2: #9ea7b3; --ink-3: #6e7681;
      --accent: #58a6ff; --accent-soft: #132c49;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; padding: 24px; background: var(--surface); color: var(--ink);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  h1 { font-size: 18px; margin: 0 0 4px; }
  h2 { font-size: 13px; margin: 28px 0 8px; color: var(--ink-2);
       text-transform: uppercase; letter-spacing: 0.06em; }
  .sub { color: var(--ink-3); margin: 0 0 20px; }
  .sub code { color: var(--ink-2); }
  .tiles { display: grid; grid-template-columns: repeat(auto-fill, minmax(150px, 1fr)); gap: 10px; }
  .tile { background: var(--panel); border: 1px solid var(--border); border-radius: 8px; padding: 10px 14px; }
  .tile .v { font-size: 22px; font-weight: 600; font-variant-numeric: tabular-nums; }
  .tile .k { color: var(--ink-2); font-size: 12px; margin-top: 2px; }
  .tile .d { color: var(--ink-3); font-size: 12px; }
  table { border-collapse: collapse; width: 100%; max-width: 880px; }
  th, td { text-align: right; padding: 5px 12px; border-bottom: 1px solid var(--border);
           font-variant-numeric: tabular-nums; white-space: nowrap; }
  th { color: var(--ink-2); font-weight: 500; font-size: 12px; }
  th:first-child, td:first-child { text-align: left; }
  td.meaning { text-align: left; color: var(--ink-2); white-space: normal; }
  .bar { position: relative; height: 10px; background: var(--accent-soft);
         border-radius: 5px; overflow: hidden; max-width: 880px; margin: 6px 0 10px; }
  .bar > div { position: absolute; inset: 0 auto 0 0; background: var(--accent); border-radius: 5px; }
  .err { color: var(--ink-3); }
  a { color: var(--accent); }
  #fleet { display: none; }
</style>
</head>
<body>
<h1>rumr sweep dashboard</h1>
<p class="sub">Live view of <code>/metrics</code> and <code>/shards</code>, refreshed every second.
<span id="status" class="err"></span></p>

<div class="tiles" id="tiles"></div>

<h2>Histograms</h2>
<table id="hist">
  <thead><tr><th>distribution</th><th>count</th><th>min</th><th>p50</th><th>p90</th><th>p99</th><th>max</th></tr></thead>
  <tbody></tbody>
</table>

<h2>Engine hot path</h2>
<table id="engine">
  <thead><tr><th>counter</th><th>value</th><th>meaning</th></tr></thead>
  <tbody></tbody>
</table>

<div id="fleet">
  <h2>Fleet</h2>
  <div id="fleetsum" class="sub"></div>
  <div class="bar"><div id="fleetbar" style="width:0%"></div></div>
  <table id="workers">
    <thead><tr><th>worker</th><th>leased</th><th>completed</th><th>expired leases</th><th>last seen</th></tr></thead>
    <tbody></tbody>
  </table>
  <p><a href="/trace" download>Download fused Perfetto trace</a> — open in ui.perfetto.dev.</p>
</div>

<script>
"use strict";
const $ = (s) => document.querySelector(s);

function fmtCount(n) {
  if (n == null) return "–";
  const a = Math.abs(n);
  if (a >= 1e9) return (n / 1e9).toFixed(1) + "G";
  if (a >= 1e6) return (n / 1e6).toFixed(1) + "M";
  if (a >= 1e3) return (n / 1e3).toFixed(1) + "k";
  return String(n);
}
function fmtNum(x) {
  if (x == null) return "–";
  if (x === 0) return "0";
  const a = Math.abs(x);
  if (a >= 1e6 || a < 1e-3) return x.toExponential(2);
  if (a >= 100) return x.toFixed(1);
  return x.toPrecision(4);
}
function fmtDur(sec) {
  if (sec == null || sec <= 0) return "–";
  sec = Math.round(sec);
  const h = Math.floor(sec / 3600), m = Math.floor((sec % 3600) / 60), s = sec % 60;
  if (h > 0) return h + "h" + String(m).padStart(2, "0") + "m";
  if (m > 0) return m + "m" + String(s).padStart(2, "0") + "s";
  return s + "s";
}

function tile(value, label, detail) {
  return '<div class="tile"><div class="v">' + value + '</div><div class="k">' + label +
         '</div>' + (detail ? '<div class="d">' + detail + '</div>' : '') + '</div>';
}

function renderMetrics(m) {
  $("#tiles").innerHTML =
    tile(fmtCount(m.configs_done) + " / " + fmtCount(m.configs_total), "configs",
         m.configs_skipped ? fmtCount(m.configs_skipped) + " restored" : "") +
    tile(fmtCount(m.simulations), "simulations", fmtCount(Math.round(m.runs_per_sec)) + "/s") +
    tile(fmtCount(m.events), "DES events", "") +
    tile(fmtCount(m.chunks), "chunks dispatched", "") +
    (m.multi_job_runs ? tile(fmtCount(m.multi_job_runs), "multi-job runs",
         "slowdown p50 " + fmtNum(m.job_slowdown && m.job_slowdown.p50)) : "") +
    tile(fmtDur(m.elapsed_seconds), "elapsed", "") +
    tile(fmtDur(m.eta_seconds), "ETA", "");

  const hists = [
    ["run makespan", m.run_makespan],
    ["chunks per run", m.chunks_per_run],
    ["config wall (s)", m.config_wall_seconds],
  ];
  if (m.multi_job_runs) {
    hists.push(["job response", m.job_response],
               ["job slowdown", m.job_slowdown],
               ["Jain fairness", m.fairness]);
  }
  $("#hist tbody").innerHTML = hists.map(([name, h]) =>
    "<tr><td>" + name + "</td><td>" + fmtCount(h.count) + "</td><td>" + fmtNum(h.min) +
    "</td><td>" + fmtNum(h.p50) + "</td><td>" + fmtNum(h.p90) + "</td><td>" + fmtNum(h.p99) +
    "</td><td>" + fmtNum(h.max) + "</td></tr>").join("");

  const e = m.engine || {};
  const rows = [
    ["events pushed", e.events_pushed, "DES events scheduled onto the heap"],
    ["events popped", e.events_popped, "events fired in timestamp order"],
    ["heap replaces", e.events_replaced, "pushes that refilled the fired root in one sift (subset of pushed)"],
    ["lazy cancels", e.lazy_cancels, "events invalidated in place instead of removed"],
    ["max heap depth", e.max_heap_depth, "largest pending-event queue (max across runs)"],
    ["syncView copies", e.sync_view_copies, "dispatcher consults, each handed the shared worker view"],
    ["syncView bytes", e.sync_view_bytes, "always 0: the view is the engine's worker state, not a copy"],
    ["trunc-normal draws", e.trunc_normal_draws, "perturbation RNG draws, truncated normal"],
    ["uniform draws", e.uniform_draws, "perturbation RNG draws, uniform"],
    ["other draws", e.other_draws, "perturbation RNG draws, other models"],
    ["re-dispatches", e.redispatches, "chunks re-sent after the first dispatch round"],
  ];
  $("#engine tbody").innerHTML = rows.map(([name, v, why]) =>
    "<tr><td>" + name + "</td><td>" + fmtCount(v) + '</td><td class="meaning">' + why +
    "</td></tr>").join("");
}

function renderShards(s) {
  if (!s || (!s.active && !(s.workers && s.workers.length))) { $("#fleet").style.display = "none"; return; }
  $("#fleet").style.display = "block";
  const pct = s.total > 0 ? (100 * s.done / s.total) : 0;
  $("#fleetbar").style.width = pct.toFixed(1) + "%";
  $("#fleetsum").textContent = s.done + " of " + s.total + " configs done (" +
    pct.toFixed(1) + "%) — " + s.queued + " queued, " + s.leased + " leased" +
    (s.fingerprint ? " — sweep " + s.fingerprint.slice(0, 12) : "");
  $("#workers tbody").innerHTML = (s.workers || []).map(w =>
    "<tr><td>" + w.worker + "</td><td>" + fmtCount(w.leased_configs) + "</td><td>" +
    fmtCount(w.completed) + "</td><td>" + fmtCount(w.expired_leases) + "</td><td>" +
    w.last_seen_sec.toFixed(1) + "s ago</td></tr>").join("");
}

async function poll() {
  try {
    const m = await (await fetch("/metrics", { cache: "no-store" })).json();
    renderMetrics(m);
    $("#status").textContent = "";
  } catch (err) {
    $("#status").textContent = "(metrics unreachable: " + err + ")";
  }
  try {
    const r = await fetch("/shards", { cache: "no-store" });
    renderShards(r.ok ? await r.json() : null);
  } catch (err) {
    renderShards(null); // standalone run: no coordinator mounted
  }
}
poll();
setInterval(poll, 1000);
</script>
</body>
</html>
`
