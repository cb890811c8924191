package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	bmmc "repro"
)

// handoffHTTPTimeout bounds the control-plane calls of a handoff (create
// and delete on the target). The record stream itself is unbounded: its
// duration is data-dependent and the transfer fails fast on a dead peer.
const handoffHTTPTimeout = 30 * time.Second

// HandoffDataset replicates a dataset onto another daemon by replaying
// the 16-byte record wire format — the cluster's rebalance primitive.
// While the transfer runs the dataset admits no jobs and no streams; on
// success with req.Delete the local copy is released atomically, so there
// is no window where a job could land on data that is about to vanish.
//
// The transfer is push-style over the target's public surface: create the
// dataset there (same geometry and backend, same id unless req.ID renames
// it), stream the records into it, and roll the remote copy back if the
// stream dies midway. Target failures surface as 502.
func (m *Manager) HandoffDataset(ctx context.Context, id string, req HandoffRequest) (*dsEntry, error) {
	d, ok := m.Dataset(id)
	if !ok {
		return nil, errUnknownDataset(id)
	}
	if req.Target == "" {
		return nil, &httpError{http.StatusBadRequest, "handoff needs a target daemon URL"}
	}
	destID := req.ID
	if destID == "" {
		destID = id
	}
	if err := validDatasetID(destID); err != nil {
		return nil, err
	}
	if err := d.beginHandoff(); err != nil {
		return nil, err
	}
	err := m.replicate(ctx, d, strings.TrimRight(req.Target, "/"), destID)
	owner := d.finishHandoff(err == nil && req.Delete)
	if err != nil {
		m.log.Warn("dataset handoff failed", "dataset", id, "target", req.Target, "err", err)
		return nil, err
	}
	if owner {
		m.teardown(d)
	}
	m.log.Info("dataset handed off", "dataset", id, "target", req.Target, "dest", destID, "deleted", owner)
	return d, nil
}

// replicate performs the remote side of a handoff while the caller holds
// the dataset's handoff slot: create the twin, stream the records, clean
// up the twin on a torn stream.
func (m *Manager) replicate(ctx context.Context, d *dsEntry, target, destID string) error {
	create := CreateDatasetRequest{Config: d.cfg, Backend: d.backend, ID: destID}
	body, err := json.Marshal(create)
	if err != nil {
		return err
	}
	cctx, cancel := context.WithTimeout(ctx, handoffHTTPTimeout)
	defer cancel()
	if err := handoffCall(cctx, http.MethodPost, target+"/v1/datasets", "application/json",
		bytes.NewReader(body), int64(len(body))); err != nil {
		return &httpError{http.StatusBadGateway, fmt.Sprintf("creating dataset %s on %s: %v", destID, target, err)}
	}

	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(d.ds.Dump(ctx, pw)) }()
	n := int64(d.cfg.N) * bmmc.RecordBytes
	if err := handoffCall(ctx, http.MethodPut, target+"/v1/datasets/"+destID+"/input",
		"application/octet-stream", pr, n); err != nil {
		pr.Close()
		// Best-effort rollback so the target is not left with a half-true
		// claim to the dataset's name.
		dctx, dcancel := context.WithTimeout(context.WithoutCancel(ctx), handoffHTTPTimeout)
		defer dcancel()
		if derr := handoffCall(dctx, http.MethodDelete, target+"/v1/datasets/"+destID, "", nil, 0); derr != nil {
			m.log.Warn("rolling back half-transferred dataset", "dataset", destID, "target", target, "err", derr)
		}
		return &httpError{http.StatusBadGateway, fmt.Sprintf("streaming dataset %s to %s: %v", d.id, target, err)}
	}
	return nil
}

// handoffCall performs one HTTP exchange of the handoff protocol,
// flattening non-2xx responses into errors. It uses net/http directly:
// package client depends on this package, so the dependency cannot point
// the other way.
func handoffCall(ctx context.Context, method, url, contentType string, body io.Reader, length int64) error {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if length > 0 {
		req.ContentLength = length
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err == nil && e.Error != "" {
			msg = e.Error
		}
		return fmt.Errorf("%s (HTTP %d)", msg, resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
