// The query endpoint: predicate pushdown served over HTTP. A shard answers
// GET /v1/fields/{name}/query straight from its store's statistics index
// (store.Query decodes only the bricks the index cannot resolve); a
// gateway answers by fanning sub-queries out along brick-ownership
// boundaries and merging the partial aggregates (qoz/cluster), so a client
// gets one answer identical to a single qozd holding the whole store. The
// endpoint itself is written once, on the shared pipeline.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"qoz/store"
)

// parseQueryRequest reads the query parameters of one /query request,
// answering the 400 itself on a bad value. Every parameter is parsed the
// same way whatever the op — a missing number is NaN, a missing count 0 —
// and store.CheckQuery keeps the ones the op takes or names what is
// wrong. The returned request always carries a concrete box: lo/hi
// default to the whole field.
func (h *handler) parseQueryRequest(w http.ResponseWriter, r *http.Request, dims []int) (store.QueryRequest, bool) {
	q := r.URL.Query()
	bad := func(format string, args ...any) (store.QueryRequest, bool) {
		h.httpError(w, r, http.StatusBadRequest, format, args...)
		return store.QueryRequest{}, false
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
	var errs []error
	num := func(name string) float64 {
		v, err := strconv.ParseFloat(cmp.Or(q.Get(name), "NaN"), 64)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s must be a number, got %q", name, q.Get(name)))
		}
		return v
	}
	count := func(name string) int {
		n, err := strconv.Atoi(cmp.Or(q.Get(name), "0"))
		if err != nil {
			errs = append(errs, fmt.Errorf("%s must be an integer, got %q", name, q.Get(name)))
		}
		return n
	}
	req := store.QueryRequest{Op: q.Get("op"), Value: num("value"), Low: num("low"), High: num("high"),
		Bins: count("bins"), MaxLocations: count("maxloc")}
	var err error
	req.Lo, req.Hi, err = parseBox("query box", q.Get("lo"), q.Get("hi"), dims)
	if err = errors.Join(append(errs, err)...); err == nil {
		req, err = store.CheckQuery(req)
	}
	if err != nil {
		return bad("%v", err)
	}
	return req, true
}

// queryVariant names a query's representation for the ETag and the
// single-flight key: the operation and every parameter of the request
// store.CheckQuery normalised, in canonical shortest-round-trip
// formatting, plus the gzip content coding. The box is not part of it —
// regionETag already embeds the box alongside the variant.
func queryVariant(req store.QueryRequest, gz bool) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	v := fmt.Sprintf("q%s:%s:%s:%s:%d:k%d", req.Op, g(req.Value), g(req.Low), g(req.High), req.Bins, req.MaxLocations)
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
