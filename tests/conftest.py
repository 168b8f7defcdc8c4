from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
