// Package obs is a fixture stub of flep/internal/obs: the registration
// surface of Registry, which the metrichygiene analyzer matches by
// package name and type name, so this stub stands in for the real
// registry under testdata.
package obs

// Registry mirrors the real registry's registration methods.
type Registry struct{}

// Counter registers a counter series.
func (r *Registry) Counter(name, help string, labels ...string) {}

// Gauge registers a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) {}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {}

// Histogram registers a histogram series with the given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) {}
