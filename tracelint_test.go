package reconf

import (
	"testing"

	"repro/internal/archlint"
)

// TestTraceStampingStaysInBusLayer pins the division of labour the trace
// subsystem copies from the paper's transformation: the bus/transport layer
// does the causal bookkeeping, everything above carries contexts opaquely.
// Only internal/bus and the trace package itself may mint or extend trace
// contexts; if this fails, a higher layer started inventing trace IDs and
// causal chains can no longer be trusted.
//
// The check itself is archlint's AL002 pass, which resolves the minting
// methods through go/types — so a comment or string that merely mentions
// MintTrace no longer trips it, and a renamed import no longer evades it.
func TestTraceStampingStaysInBusLayer(t *testing.T) {
	report, err := archlint.Run(archlint.Config{Dir: "."})
	if err != nil {
		t.Fatalf("archlint: %v", err)
	}
	for _, d := range report.Diags {
		if d.Code == archlint.CodeTraceMint {
			t.Errorf("%s", d)
		}
	}
}
