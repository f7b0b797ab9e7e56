// Package metrics exercises the metrichygiene analyzer against the
// registration surface of obs (a stub of the real package).
package metrics

import "obs"

// Register exercises naming and label rules.
func Register(r *obs.Registry, session string) {
	r.Counter("flep_fixture_events_total", "events observed")

	r.Counter("fixture_bad_name_total", "missing namespace") // want `metricname .*does not match flep_`

	name := "flep_computed_total"
	r.Counter(name, "computed name") // want `metricname metric name passed to Counter must be a string literal`

	r.Gauge("flep_fixture_sessions", "sessions by id", "session", session) // want `metriclabel label value is not a literal`

	// Distinct label values inside one family are the sanctioned
	// pattern (kind=primary / kind=guest in the runtime).
	r.Counter("flep_fixture_kind_total", "per-kind", "kind", "primary")
	r.Counter("flep_fixture_kind_total", "per-kind", "kind", "guest")
}

// RegisterDup registers families incoherently.
func RegisterDup(r *obs.Registry) {
	r.Gauge("flep_fixture_events_total", "events observed") // want `metricdup .*registered as Gauge but first registered as Counter`
	r.Counter("flep_fixture_kind_total", "different help")  // want `metricdup .*different help string`
	r.Counter("flep_fixture_once_total", "once")
	r.Counter("flep_fixture_once_total", "once") // want `metricdup .*more than one site`
}
