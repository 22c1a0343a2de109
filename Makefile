PYTHON ?= python
export PYTHONPATH := src

.PHONY: test serve fuzz fuzz-deep obs-report

test:
	$(PYTHON) -m pytest -x -q

# Seeded property-based validation (kernel invariants + batch/scalar
# differential oracle).  Failures print a REPRO_FUZZ_SEED replay line.
fuzz:
	$(PYTHON) -m repro.validation.fuzz --tier quick

fuzz-deep:
	$(PYTHON) -m repro.validation.fuzz --tier deep
	$(PYTHON) -m pytest -m fuzz -q

# Drive the async serving front end directly (see repro-serve --help for
# trace shape, batching knobs, gates, and the JSONL artifact).
serve:
	$(PYTHON) -m repro.runtime.serve_cli $(SERVE_ARGS)

# Summarize the REPRO_OBS=jsonl event stream (repro_obs.jsonl by default):
# top spans, trace-cache hit ratios, and the predictor decision-audit table.
# Override the stream with OBS_STREAM=<path>.
obs-report:
	$(PYTHON) -m repro.obs.report $(OBS_STREAM)
