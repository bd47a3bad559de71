"""Exception types shared across the package."""


class FacelaserError(Exception):
    """Base class for all package-specific failures."""


class DegenerateNormal(FacelaserError):
    """Approach normal is parallel to the crossing reference axis."""


class ParseError(FacelaserError):
    """File does not conform to the expected format."""


class MissingField(ParseError):
    """A required property (x, y, z) is absent from the header."""


class EmptyCloud(FacelaserError):
    """Operation requires a non-empty point cloud."""


class TooFewPoints(FacelaserError):
    """Not enough points for a neighborhood-based estimate."""


class InvalidParam(FacelaserError):
    """Parameter outside its valid range; `name`, when given, names the
    rejected parameter of the function that raised it."""

    def __init__(self, message, name=None):
        super().__init__(message)
        self.name = name


class NoCorrespondences(FacelaserError):
    """No source point fell in a target voxel, so ICP has nothing to pair."""


class MalformedLandmarks(FacelaserError):
    """Landmark layout yields a self-intersecting or degenerate region polygon."""


class EmptySegment(FacelaserError):
    """Segment cloud has no points to plan over."""


class ContactError(FacelaserError):
    """Measured separation collapsed to zero."""


class AbortedOnSafety(FacelaserError):
    """Run stopped before reaching a target, typically held off by the
    safety field. Carries whatever was executed up to the abort."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class EmptyLog(FacelaserError):
    """Coverage statistics need at least one shot."""


class ConfigError(FacelaserError):
    """Run configuration failed validation."""
