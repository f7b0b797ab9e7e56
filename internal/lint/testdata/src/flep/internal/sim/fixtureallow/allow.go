// Package fixtureallow exercises the //flepvet:allow escape hatch:
// well-formed annotations suppress, malformed ones are themselves
// diagnosed and suppress nothing. Expectations live in
// TestAllowAnnotations (the annotation line cannot also carry a want
// comment without corrupting the annotation).
package fixtureallow

import "time"

// Allowed demonstrates the comment-above form.
func Allowed() int64 {
	//flepvet:allow wallclock -- fixture: boundary code stamps real arrival times
	return time.Now().UnixNano()
}

// SameLine demonstrates the trailing form.
func SameLine() time.Time {
	return time.Now() //flepvet:allow wallclock -- fixture: same-line annotation
}

// MissingReason's annotation is rejected, so the finding still fires.
func MissingReason() int64 {
	//flepvet:allow wallclock
	return time.Now().UnixNano()
}

// UnknownCategory names a category no analyzer owns.
func UnknownCategory() time.Time {
	//flepvet:allow notacategory -- reason is present but the category is wrong
	return time.Now()
}

// Unused's annotation covers no finding, so it is reported itself.
func Unused() time.Duration {
	//flepvet:allow wallclock -- fixture: nothing here reads the clock
	return time.Millisecond
}
