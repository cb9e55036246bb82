package fault_test

// Round-trip fuzzing of the fault-schedule parser, mirroring the QUEL
// parser fuzz from the query layer: any accepted spec must format to a
// canonical spelling that parses back to the identical Injection and is a
// fixed point of format∘parse. The seed corpus is the schedules the fault
// and CLI tests use; CI runs FuzzParseInjection as a short smoke on top of
// the deterministic corpus test.

import (
	"testing"

	"gamma/internal/fault"
)

// seedSpecs are the schedule spellings used across the test suite and the
// gammaql -fault documentation, plus grammar corners (bare crash form,
// zero time, sub-microsecond rounding, exponent notation, junk).
var seedSpecs = []string{
	"2@1.5",
	"crash:0@0",
	"crash:12@0.75",
	"drive:3@0.25",
	"drive:0@10",
	"nic:1@0.5+0.2",
	"nic:3@0.5+0.25",
	"nic:0@0+0.000001",
	"outage:1@2+5",
	"outage:0@0.5+0.000001",
	"outage:4@10+0.25",
	"7@2.999999",
	"crash:1@1e-3",
	"drive:2@0.1234567",
	"nic:1@Inf+1",
	"nic:1@1+NaN",
	"1@9e99",
	"-1@2",
	"burn:1@2",
	"nic:1@0.5",
	"",
}

// roundTrip asserts the fixed-point property for one accepted spec.
func roundTrip(t *testing.T, spec string) {
	t.Helper()
	in, err := fault.ParseInjection(spec)
	if err != nil {
		return // rejected inputs have no canonical form
	}
	canon := fault.FormatInjection(in)
	in2, err := fault.ParseInjection(canon)
	if err != nil {
		t.Fatalf("canonical form %q (of %q) fails to parse: %v", canon, spec, err)
	}
	if in2 != in {
		t.Fatalf("format/parse not lossless:\n input %q -> %+v\n canon %q -> %+v", spec, in, canon, in2)
	}
	if again := fault.FormatInjection(in2); again != canon {
		t.Fatalf("format∘parse is not a fixed point:\n input %q\n canon %q\n again %q", spec, canon, again)
	}
	// An accepted injection is always usable: non-negative instant, a
	// positive duration exactly when the kind carries one (NIC or node
	// outage).
	if in.At < 0 || in.Site < 0 {
		t.Fatalf("accepted spec %q produced invalid injection %+v", spec, in)
	}
	hasDur := in.Kind == fault.NICOutage || in.Kind == fault.NodeOutage
	if hasDur != (in.Dur > 0) {
		t.Fatalf("accepted spec %q has inconsistent duration: %+v", spec, in)
	}
}

// TestParseInjectionSeedCorpus keeps the fuzz seeds passing
// deterministically, so the corpus stays valid even when no fuzz engine
// runs.
func TestParseInjectionSeedCorpus(t *testing.T) {
	accepted := 0
	for _, spec := range seedSpecs {
		if _, err := fault.ParseInjection(spec); err == nil {
			accepted++
		}
		roundTrip(t, spec)
	}
	if accepted < 10 {
		t.Fatalf("only %d/%d seed specs accepted; corpus has rotted", accepted, len(seedSpecs))
	}
}

// TestParseInjectionRejectsNonFinite pins the hardening the fuzz harness
// drove in: NaN and infinite times or durations must be rejected, as must
// magnitudes that would overflow the microsecond clock.
func TestParseInjectionRejectsNonFinite(t *testing.T) {
	for _, spec := range []string{
		"1@NaN", "1@Inf", "1@+Inf", "crash:1@1e308", "1@9e99",
		"nic:1@Inf+1", "nic:1@1+Inf", "nic:1@1+NaN", "nic:1@1+1e308",
		"nic:1@1+0.0000001", // rounds to zero microseconds
	} {
		if in, err := fault.ParseInjection(spec); err == nil {
			t.Errorf("ParseInjection(%q) = %+v, want error", spec, in)
		}
	}
}

// FuzzParseInjection feeds arbitrary specs through ParseInjection; whatever
// is accepted must round-trip losslessly through FormatInjection.
func FuzzParseInjection(f *testing.F) {
	for _, spec := range seedSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		roundTrip(t, spec)
	})
}
