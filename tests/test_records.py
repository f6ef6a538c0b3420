"""The pipeline's records hold no value that is fixed for a whole run.

Frame times come from ``FrontendConfig.frame_shift``, every canonical
recording is 16 kHz mono 16-bit PCM, and a chunk belongs to the one
recording its caller holds, so none of these is a field."""

import dataclasses

import pytest

from asrboot.am import AlignmentPath
from asrboot.corpus import Recording
from asrboot.features import FeatureMatrix
from asrboot.segment import Chunk


@pytest.mark.parametrize(
    "record, names",
    [
        (FeatureMatrix, ["frames", "log_energy"]),
        (AlignmentPath,
         ["words", "state_ids", "phone_intervals", "word_intervals", "loglik"]),
        (Recording, ["id", "audio_path", "duration"]),
        (Chunk, ["start", "end"]),
    ],
)
def test_fields_are_only_the_kept_values(record, names):
    assert [f.name for f in dataclasses.fields(record)] == names
