"""Codecs and brute-force oracles for synchronization-error channels."""

from .words import (
    DelAndSub,
    Deletion,
    ErrorModel,
    Insertion,
    Substitution,
    Transposition,
    Word,
    apply,
    error_ball,
    forward_images,
    prefix_parity,
    run_count,
    run_string,
)
from .sketches import vt
from .edit4 import Edit4Code, Edit4Params
from .delsub import DelSubCode, DelSubParams, list_decode
from .deltrans import DeltransDeskCode, DeltransParams
from .oracle import VerificationReport, search_inner_code, verify_code

__all__ = [
    "DelAndSub", "Deletion", "ErrorModel", "Insertion", "Substitution",
    "Transposition", "Word", "apply", "error_ball", "forward_images",
    "prefix_parity", "run_count", "run_string",
    "vt",
    "Edit4Code", "Edit4Params", "DelSubCode", "DelSubParams", "list_decode",
    "DeltransDeskCode", "DeltransParams",
    "VerificationReport", "search_inner_code", "verify_code",
]
