package gpu

import (
	"flep/internal/obs"
)

// DeviceMetrics instruments the device model: execution lifecycle counts
// and the live occupancy gauges (busy SMs, resident CTAs, reserved
// memory) that back the paper's utilization claims (§7, Figure 16's
// SM-partitioning sweep). All instruments are nil-safe, so an
// uninstrumented device (the zero value) costs nothing.
type DeviceMetrics struct {
	// Launches counts Start calls; Residencies counts CTA placements
	// becoming resident (launches plus post-expand relandings).
	Launches    *obs.Counter
	Residencies *obs.Counter
	// Completions counts executions finishing their last task.
	Completions *obs.Counter
	// PreemptRequests counts Preempt calls on running executions; Drains
	// counts completed drains (flag observed, SMs freed).
	PreemptRequests *obs.Counter
	Drains          *obs.Counter
	// CTAsPlaced accumulates CTAs made resident across all placements
	// (the paper's per-CTA dispatch accounting).
	CTAsPlaced *obs.Counter

	// BusySMs is the number of SMs with at least one resident CTA;
	// ResidentCTAs the device-wide resident CTA count; Executions the
	// number of registered executions (launching or running).
	BusySMs      *obs.Gauge
	ResidentCTAs *obs.Gauge
	Executions   *obs.Gauge
	// MemoryReserved is the reserved device memory in bytes.
	MemoryReserved *obs.Gauge
}

// NewDeviceMetrics registers the device metric families on reg.
func NewDeviceMetrics(reg *obs.Registry) *DeviceMetrics {
	return &DeviceMetrics{
		Launches:    reg.Counter("flep_device_launches_total", "Kernel executions started on the device"),
		Residencies: reg.Counter("flep_device_residencies_total", "CTA placements becoming resident"),
		Completions: reg.Counter("flep_device_completions_total", "Executions that finished their last task"),
		PreemptRequests: reg.Counter("flep_device_preempt_requests_total",
			"Preemption flags raised on running executions"),
		Drains:     reg.Counter("flep_device_drains_total", "Completed preemption drains"),
		CTAsPlaced: reg.Counter("flep_device_ctas_placed_total", "CTAs made resident across all placements"),
		BusySMs: reg.Gauge("flep_device_sm_busy",
			"SMs with at least one resident CTA"),
		ResidentCTAs: reg.Gauge("flep_device_resident_ctas", "Device-wide resident CTA count"),
		Executions:   reg.Gauge("flep_device_executions", "Registered executions (launching or running)"),
		MemoryReserved: reg.Gauge("flep_device_memory_reserved_bytes",
			"Device memory currently reserved by working sets"),
	}
}

// Instrument attaches a metrics set to the device. Pass the result of
// NewDeviceMetrics; a nil m detaches.
func (d *Device) Instrument(m *DeviceMetrics) {
	if m == nil {
		d.met = DeviceMetrics{}
		return
	}
	d.met = *m
	d.updateGauges()
}

// updateGauges refreshes the occupancy gauges from current device state.
// Called wherever placement, registration, or reservations change.
func (d *Device) updateGauges() {
	busy, ctas := 0, 0
	for _, e := range d.execs {
		if e.state != StateRunning {
			continue
		}
		if e.perSM > 0 {
			busy += e.smHi - e.smLo
		} else {
			busy += e.extra
		}
		ctas += e.resident
	}
	d.met.BusySMs.Set(float64(busy))
	d.met.ResidentCTAs.Set(float64(ctas))
	d.met.Executions.Set(float64(len(d.execs)))
	d.met.MemoryReserved.Set(float64(d.reserved))
}
