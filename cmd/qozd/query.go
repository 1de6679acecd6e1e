// The query endpoint: predicate pushdown served over HTTP. A shard answers
// GET /v1/fields/{name}/query straight from its store's statistics index
// (store.Query decodes only the bricks the index cannot resolve); a
// gateway answers by fanning sub-queries out along brick-ownership
// boundaries and merging the partial aggregates (qoz/cluster), so a client
// gets one answer identical to a single qozd holding the whole store. The
// endpoint itself is written once, on the shared pipeline.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"qoz/store"
)

// parseQueryRequest reads and validates the query parameters of one
// /query request against the field's dims, answering the 400 itself on a
// bad value. The returned request always carries a concrete box: lo/hi
// default to the whole field.
func (h *handler) parseQueryRequest(w http.ResponseWriter, r *http.Request, dims []int) (store.QueryRequest, bool) {
	q := r.URL.Query()
	var req store.QueryRequest
	bad := func(format string, args ...any) (store.QueryRequest, bool) {
		h.httpError(w, r, http.StatusBadRequest, format, args...)
		return store.QueryRequest{}, false
	}

	req.Op = q.Get("op")
	switch req.Op {
	case store.QueryGT, store.QueryLT, store.QueryRange, store.QueryMin, store.QueryMax, store.QueryHist:
	case "":
		return bad("query needs op=gt|lt|range|min|max|hist")
	default:
		return bad("unknown query op %q (want gt, lt, range, min, max, or hist)", req.Op)
	}

	// The box is optional — a query, unlike a region read, defaults to the
	// whole field, because the server aggregates instead of shipping points.
	// It is one box: several lo=/hi= pairs are /region's multi-box form.
	if len(q["lo"]) > 1 || len(q["hi"]) > 1 {
		return bad("a query answers one box; repeated lo=/hi= pairs are the multi-box form of /region only")
	}
	if (q.Get("lo") == "") != (q.Get("hi") == "") {
		return bad("query box needs both lo=a,b,... and hi=a,b,... (or neither, for the whole field)")
	}
	var err error
	if req.Lo, req.Hi, err = parseBox("query box", q.Get("lo"), q.Get("hi"), dims); err != nil {
		return bad("%v", err)
	}

	finite := func(name string) (float64, error) {
		s := q.Get(name)
		if s == "" {
			return 0, fmt.Errorf("op %q needs %s=", req.Op, name)
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("%s must be a finite number, got %q", name, s)
		}
		return v, nil
	}
	switch req.Op {
	case store.QueryGT, store.QueryLT:
		if req.Value, err = finite("value"); err != nil {
			return bad("%v", err)
		}
	case store.QueryRange, store.QueryHist:
		if req.Low, err = finite("low"); err != nil {
			return bad("%v", err)
		}
		if req.High, err = finite("high"); err != nil {
			return bad("%v", err)
		}
		if req.Low >= req.High {
			return bad("query needs low < high, got [%g, %g)", req.Low, req.High)
		}
	}
	if req.Op == store.QueryHist {
		b := q.Get("bins")
		n, err := strconv.Atoi(b)
		if b == "" || err != nil || n < 1 || n > store.MaxQueryBins {
			return bad("hist needs bins in 1..%d, got %q", store.MaxQueryBins, b)
		}
		req.Bins = n
	}
	if ml := q.Get("maxloc"); ml != "" {
		n, err := strconv.Atoi(ml)
		if err != nil || n < 0 {
			return bad("maxloc must be a non-negative integer, got %q", ml)
		}
		req.MaxLocations = n
	}
	return req, true
}

// queryVariant names a query's representation for the ETag and the
// single-flight key: the operation and every parameter that changes the
// answer, in canonical shortest-round-trip formatting, plus the gzip
// content coding. The box is not part of it — regionETag already embeds
// the box alongside the variant.
func queryVariant(req store.QueryRequest, gz bool) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	v := "q" + req.Op
	switch req.Op {
	case store.QueryGT, store.QueryLT:
		v += ":" + g(req.Value)
	case store.QueryRange:
		v += ":" + g(req.Low) + ":" + g(req.High)
	case store.QueryHist:
		v += ":" + g(req.Low) + ":" + g(req.High) + ":" + strconv.Itoa(req.Bins)
	}
	if req.MaxLocations > 0 {
		v += ":k" + strconv.Itoa(req.MaxLocations)
	}
	if gz {
		v += "+gzip"
	}
	return v
}

// handleQuery answers a pushdown query over one field. It rides the same
// pipeline as handleRegion — validate, strong ETag over (store content,
// box, dtype, variant), If-None-Match, single-flight — but the response is
// a small JSON aggregate (store.QueryResult) instead of a point slab.
func (h *handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	h.serveConditional(w, r, func(f snapshot) (answer, bool) {
		req, ok := h.parseQueryRequest(w, r, f.dims)
		if !ok {
			return answer{}, false
		}
		// The served-points bound applies to what crosses the wire: a query
		// response is a fixed-size aggregate plus maxloc coordinates, so only
		// the location cap is limited — a whole-field count over a region too
		// large to download is exactly what pushdown is for.
		if h.maxPoints > 0 && req.MaxLocations > h.maxPoints {
			h.httpError(w, r, http.StatusRequestEntityTooLarge,
				"maxloc %d over the %d-point response limit", req.MaxLocations, h.maxPoints)
			return answer{}, false
		}
		return answer{
			boxes: []store.Box{{Lo: req.Lo, Hi: req.Hi}},
			// A gateway's generation gate reads the same "crc-gN" prefix off
			// this ETag as off a region's.
			variant: queryVariant(req, acceptsGzip(r)),
			work:    queryVariant(req, false),
			produce: func(ctx context.Context) (any, error) {
				return h.be.query(ctx, f, req)
			},
			write: func(res any) {
				body, finish := jsonBody(w, r)
				json.NewEncoder(body).Encode(res)
				finish()
			},
		}, true
	})
}
