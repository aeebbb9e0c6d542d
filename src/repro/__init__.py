"""Reproduction of HaVen: Hallucination-Mitigated LLM for Verilog Code Generation.

Top-level packages:

* :mod:`repro.verilog`  — Verilog lexer/parser/AST, syntax checker, topic analyzer
  and functional simulator (the toolchain substrate).
* :mod:`repro.logic`    — boolean expressions, Quine–McCluskey minimisation,
  Karnaugh maps and expression→Verilog synthesis.
* :mod:`repro.symbolic` — truth-table / waveform / state-diagram modalities and
  their detection inside prompts.
* :mod:`repro.core`     — the HaVen contribution: hallucination taxonomy, SI-CoT,
  exemplar library, K/L dataset generation, behavioural CodeGen LLMs,
  fine-tuning and the end-to-end pipeline.
* :mod:`repro.bench`    — VerilogEval v1/v2 and RTLLM style benchmark suites,
  pass@k evaluation and report rendering.
* :mod:`repro.experiments` — one driver per paper table/figure.

Package attributes load on first access (PEP 562): ``import repro`` imports
no subpackage, and ``repro.bench`` imports :mod:`repro.bench` the first time
it is read.  The same holds for the public names of ``repro.bench``,
``repro.core``, ``repro.core.llm``, ``repro.runs`` and ``repro.service``, so
a client, the broker and the HTTP server load no check engine.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, {}, submodules=("analysis", "bench", "core", "logic", "symbolic", "verilog")
)
__all__.append("__version__")
